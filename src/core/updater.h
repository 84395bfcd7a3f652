#pragma once

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/scorer.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/containers.h"
#include "util/lifetime.h"

namespace anot {

/// \brief Counters describing what one Ingest call changed (diagnostics).
struct UpdateEffects {
  uint32_t new_entity_categories = 0;
  uint32_t new_rule_nodes = 0;
  uint32_t new_rule_edges = 0;
  uint32_t timespans_recorded = 0;
  /// Number of Ingest calls folded into this struct (1 after one Ingest).
  uint32_t facts_ingested = 0;

  /// Folds another ingest's counters into this one — stream/batch totals.
  void Accumulate(const UpdateEffects& other) {
    new_entity_categories += other.new_entity_categories;
    new_rule_nodes += other.new_rule_nodes;
    new_rule_edges += other.new_rule_edges;
    timespans_recorded += other.timespans_recorded;
    facts_ingested += other.facts_ingested;
  }
};

/// \brief Online rule-graph maintenance (§4.4, Algorithm 3).
///
/// For each new *valid* knowledge the updater:
///  1. appends the fact to the TKG (graph structure changes);
///  2. extends the category function when an entity meets a relation it
///     never interacted with (entity semantic changes / new entities);
///  3. admits new atomic rules once an unseen pattern recurs enough to
///     pass the marginal MDL test, then wires chain edges to temporally
///     close facts of the same pair (graph pattern changes);
///  4. appends observed timespans to every in-edge the new knowledge
///     instantiates (timespan distribution changes).
/// Steps 3 and 4 share one rule set (the rules step 3 finds or admits)
/// and one Scorer::ChainWindow of the fact's pair history.
class Updater {
 public:
  /// A recurring unseen pattern becomes a new rule node once its online
  /// support reaches this count and the marginal MDL test passes.
  static constexpr uint32_t kNewRuleMinSupport = 3;

  /// Cap on the not-yet-admitted pattern table. Anomaly-heavy streams mint
  /// unbounded never-admitted candidates (every unseen (C(s), r, C(o))
  /// combination opens an entry); past the cap the least-recently-touched
  /// candidate is evicted, bounding memory at the cost of forgetting
  /// support that accrues slower than the eviction horizon. Evictions are
  /// counted (pending_evictions()), so the truncation is never silent.
  static constexpr size_t kMaxPendingRules = 65536;

  Updater(TemporalKnowledgeGraph* graph, CategoryFunction* categories,
          RuleGraph* rules, const DetectorOptions* detector_options);

  /// Algorithm 3 for one piece of new valid knowledge.
  UpdateEffects Ingest(const Fact& fact);

  /// Number of patterns currently tracked but not yet admitted. Bounded by
  /// kMaxPendingRules (diagnostics / tests).
  size_t pending_rule_count() const { return pending_index_.size(); }

  /// Pending entries this updater evicted to stay within kMaxPendingRules.
  /// Monotonic over the updater's life and never checkpointed: a restored
  /// (or refreshed) detector starts counting from 0.
  uint64_t pending_evictions() const { return pending_evictions_; }

  /// Checks the pending-rule table: the cap is respected, and every entry
  /// has support >= 1, names known categories and a known relation, and
  /// is not also admitted to the rule graph. Returns the first violation.
  Status Validate() const;

  /// Debug validator (compiled behind ANOT_VALIDATE, no-op otherwise):
  /// Validate() plus the list structure — the links are mutual, the walk
  /// from the head visits every indexed node once and ends at the tail,
  /// each index entry names its node, and the free list holds the rest.
  /// ANOT_CHECK-fails on the first violation.
  void CheckInvariants() const;

 private:
  /// The checkpoint codec (io/checkpoint.h) saves the pending table in
  /// LRU order and rebuilds the node vector and index from it at load.
  friend class Checkpoint;

  /// End-of-list / empty-free-list marker for PendingNode links.
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  /// One pending pattern: its key and online support (the persisted
  /// fields), and its links in the recency list (or, for a free slot, the
  /// next free slot in `next`).
  struct PendingNode {
    AtomicRule rule;
    uint32_t support = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;

    /// The persisted field list, in checkpoint order (io/checkpoint.cc).
    template <class V>
    void Fields(V& v) {
      rule.Fields(v);
      v(support);
    }
  };

  /// Marginal MDL admission test for a recurring unseen pattern.
  bool ShouldAdmitRule(uint32_t online_support) const;

  /// Bumps (or opens) the pending-support entry for `rule` and returns the
  /// new support count, evicting the least-recently-touched entry when the
  /// table would exceed kMaxPendingRules.
  uint32_t TouchPendingRule(const AtomicRule& rule);
  void ErasePendingRule(const AtomicRule& rule);
  /// Recency-list splices: unlink node `i`, or link it in at the head.
  void UnlinkPending(uint32_t i);
  void PushPendingFront(uint32_t i);

  // anot-own: borrowed from the owning AnoT (or a test caller), which
  // heap-holds graph/categories/rules/options so these borrows survive
  // moves of the owner; AnoT recreates its Updater at every structure
  // swap (RecreateServingObjects).
  not_null<TemporalKnowledgeGraph*> graph_;
  not_null<CategoryFunction*> categories_;
  not_null<RuleGraph*> rules_;
  not_null<const DetectorOptions*> detector_options_;
  Scorer scorer_;
  /// Online support counts of patterns not (yet) in the rule graph, as an
  /// LRU list linked by index inside one node vector (head = most recently
  /// touched, tail = next to evict). `pending_index_` maps each pattern to
  /// its node. An eviction reuses the evicted node in place; an admission
  /// frees its node onto the free list, which the next new pattern takes.
  /// Deterministic: the updater is serial, so touch order is ingest order.
  std::vector<PendingNode> pending_nodes_;
  dense_map<AtomicRule, uint32_t, AtomicRuleHash> pending_index_;
  uint32_t pending_head_ = kNil;
  uint32_t pending_tail_ = kNil;
  uint32_t pending_free_ = kNil;
  uint64_t pending_evictions_ = 0;
};

}  // namespace anot
