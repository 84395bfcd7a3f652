#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tkg/types.h"
#include "util/containers.h"
#include "util/status.h"

namespace anot {

using RuleId = uint32_t;
using RuleEdgeId = uint32_t;

/// \brief An atomic rule (C(s), r, C(o)) — a node of the rule graph (§3.4.1).
struct AtomicRule {
  CategoryId subject_category = kInvalidId;
  RelationId relation = kInvalidId;
  CategoryId object_category = kInvalidId;

  bool operator==(const AtomicRule& other) const {
    return subject_category == other.subject_category &&
           relation == other.relation &&
           object_category == other.object_category;
  }

  /// The persisted field list, in checkpoint order (io/checkpoint.cc).
  template <class V>
  void Fields(V& v) {
    v(subject_category);
    v(relation);
    v(object_category);
  }

  /// Checks that the rule names categories and a relation inside the
  /// given universes.
  Status ValidateIds(size_t num_categories, size_t num_relations) const;
};

struct AtomicRuleHash {
  size_t operator()(const AtomicRule& r) const {
    uint64_t h = internal::HashMix(
        (static_cast<uint64_t>(r.subject_category) << 32) |
        r.object_category);
    return internal::HashMix(h ^ r.relation);
  }
};

/// \brief Edge kinds (§3.4.2): chain occurring (v_h -> v_t) and triadic
/// occurring ((v_h, v_m) -> v_t).
enum class RuleEdgeKind { kChain, kTriadic };

/// \brief A rule edge with its preserved occurrence timespans T(e).
struct RuleEdge {
  RuleEdgeKind kind = RuleEdgeKind::kChain;
  RuleId head = kInvalidId;
  RuleId mid = kInvalidId;  // kInvalidId for chain edges
  RuleId tail = kInvalidId;
  /// Occurrence timespans of the described fact pairs, ascending. Most
  /// edges preserve a handful of spans; the inline storage keeps the
  /// scorer's per-edge agreement scans off the heap.
  small_vec<Timestamp, 8> timespans;
  /// Number of correct assertions |A_e| observed at selection time.
  uint32_t support = 0;

  /// The persisted field list, in checkpoint order (io/checkpoint.cc).
  template <class V>
  void Fields(V& v) {
    v(kind, RuleEdgeKind::kTriadic);
    v(head);
    v(mid);
    v(tail);
    v(support);
    v.List(timespans);
  }
};

/// \brief The exact identity of a rule edge (chain edges carry mid =
/// kInvalidId): the one key of the rule graph's edge index and of candidate
/// generation's edge scan.
struct EdgeKey {
  RuleEdgeKind kind = RuleEdgeKind::kChain;
  RuleId head = kInvalidId;
  RuleId mid = kInvalidId;
  RuleId tail = kInvalidId;

  bool operator==(const EdgeKey& o) const {
    return kind == o.kind && head == o.head && mid == o.mid && tail == o.tail;
  }
};

struct EdgeKeyHash {
  size_t operator()(const EdgeKey& k) const {
    uint64_t h =
        internal::HashMix((static_cast<uint64_t>(k.head) << 32) | k.tail);
    h = internal::HashMix(h ^ k.mid);
    return internal::HashMix(
        h ^ (k.kind == RuleEdgeKind::kTriadic ? 0x9E9Eu : 0u));
  }
};

/// \brief The rule graph: the paper's TKG summarization structure.
///
/// Nodes are atomic rules; edges preserve the sequential relevance between
/// them. Nodes carry their correct-assertion count |A_v| which anchors both
/// the static score (Eq. 9) and the temporal evidence weights (Eq. 10).
///
/// Some edges reference atomic rules that were *not* selected during the
/// static pass; the paper restricts those rules to time-error verification,
/// tracked here by the per-rule `static_selected` flag.
class RuleGraph {
 public:
  /// Adds (or finds) a rule node. Increments nothing; support is managed
  /// by the caller via SetSupport/AddSupport.
  RuleId AddRule(const AtomicRule& rule, bool static_selected);

  /// Id lookup; nullopt when the rule is not a node.
  std::optional<RuleId> FindRule(const AtomicRule& rule) const;

  /// Appends to `out` the id of every rule (subject_category, relation,
  /// c_o) with c_o in `object_categories`, in the order of that list,
  /// which must be ascending. Costs one probe plus a merge of two sorted
  /// lists, not one probe per object category.
  void AppendRules(CategoryId subject_category, RelationId relation,
                   const std::vector<CategoryId>& object_categories,
                   small_vec<RuleId, 8>* out) const;

  /// Adds an edge; merges timespans into an existing identical edge. A
  /// new edge must pass ValidateEdge once its timespans are sorted.
  RuleEdgeId AddEdge(const RuleEdge& edge);

  /// Checks one edge against this graph's rules: head and tail are known
  /// rules, a triadic edge has a known mid rule and a chain edge none, and
  /// the timespans are sorted.
  Status ValidateEdge(const RuleEdge& edge) const;

  size_t num_rules() const { return rules_.size(); }
  size_t num_edges() const { return edges_.size(); }
  /// Number of rules usable for static (conceptual) scoring.
  size_t num_static_rules() const { return num_static_; }

  const AtomicRule& rule(RuleId id) const ANOT_LIFETIME_BOUND {
    return rules_[id];
  }
  bool static_selected(RuleId id) const { return static_selected_[id]; }
  uint32_t support(RuleId id) const { return support_[id]; }
  void SetSupport(RuleId id, uint32_t support) { support_[id] = support; }
  void AddSupport(RuleId id, uint32_t delta) { support_[id] += delta; }

  /// Whether the pattern repeats on the same entity pair (learned from the
  /// assertion data at build time). An already-occurred successor of a
  /// recurrent pattern is expected, not an occurrence-order conflict, so
  /// temporal scoring skips violation checks on recurrent tails.
  bool recurrent(RuleId id) const { return recurrent_[id]; }
  void SetRecurrent(RuleId id, bool recurrent) { recurrent_[id] = recurrent; }

  const RuleEdge& edge(RuleEdgeId id) const ANOT_LIFETIME_BOUND {
    return edges_[id];
  }
  RuleEdge& mutable_edge(RuleEdgeId id) ANOT_LIFETIME_BOUND {
    return edges_[id];
  }

  /// Per-rule adjacency lists: small_vec keeps the common few-edge case
  /// inline, so the scorer's evidence walk chases no per-rule heap nodes.
  using EdgeList = small_vec<RuleEdgeId, 4>;

  /// Edges whose tail is `rule` (precursor side of temporal scoring).
  const EdgeList& InEdges(RuleId rule) const ANOT_LIFETIME_BOUND;
  /// Edges whose head or mid is `rule` (successor side; violation checks).
  const EdgeList& OutEdges(RuleId rule) const ANOT_LIFETIME_BOUND;

  /// Appends an observed timespan to edge `id`, keeping T(e) sorted
  /// (updater: timespan distribution changes).
  void AddTimespan(RuleEdgeId id, Timestamp span);

  /// Looks up an identical edge (kind/head/mid/tail), if present.
  std::optional<RuleEdgeId> FindEdge(RuleEdgeKind kind, RuleId head,
                                     RuleId mid, RuleId tail) const;

  /// Multi-line human-readable dump (used by serialization and examples).
  std::string ToString() const;

  /// Checks the persisted state: parallel per-rule arrays of one size and
  /// every edge passing ValidateEdge. Returns the first violation.
  Status Validate() const;

  /// Debug validator (compiled behind ANOT_VALIDATE, no-op otherwise):
  /// Validate() plus the indexes AddRule/AddEdge maintain — rule/edge
  /// index round-trips, ascending rule runs, the num_static_ count, and
  /// exact in/out adjacency membership. ANOT_CHECK-fails on the first
  /// violation.
  void CheckInvariants() const;

 private:
  /// The rule index: each (relation, subject category) key owns a run of
  /// `keyed_rules_`, ascending by object category. A full run moves to
  /// the end of the store with twice the room, so one flat vector holds
  /// every run in fewer than four slots per rule (dead slots of moved
  /// runs included), and a lookup is one probe plus a search of one
  /// contiguous run.
  struct KeyedRule {
    CategoryId object_category = kInvalidId;
    RuleId rule = kInvalidId;
  };
  struct RuleRun {
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };
  static uint64_t RunKey(RelationId relation, CategoryId subject_category);
  /// The entry of `run` at or after `object_category`, or the run's end.
  const KeyedRule* LowerBound(const RuleRun& run,
                              CategoryId object_category) const
      ANOT_LIFETIME_BOUND;

  std::vector<AtomicRule> rules_;
  std::vector<uint32_t> support_;
  std::vector<bool> static_selected_;
  std::vector<bool> recurrent_;
  size_t num_static_ = 0;
  dense_map<uint64_t, RuleRun> rule_runs_;
  std::vector<KeyedRule> keyed_rules_;

  std::vector<RuleEdge> edges_;
  dense_map<EdgeKey, RuleEdgeId, EdgeKeyHash> edge_index_;
  std::vector<EdgeList> in_edges_;
  std::vector<EdgeList> out_edges_;
};

}  // namespace anot
