#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "tkg/dictionary.h"
#include "tkg/types.h"
#include "util/containers.h"
#include "util/status.h"

namespace anot {

/// \brief In-memory temporal knowledge graph G = (E, R, T, F).
///
/// The store is append-only (facts are never removed; real TKGs only grow,
/// see paper §3.1) and maintains exactly the secondary indexes the detector
/// reads:
///
///  * by-timestamp index                      — splits, the MDL ledger's
///                                              per-timestamp totals,
///                                              baselines
///  * per-(s,o)-pair interaction sequences    — chain-occurring patterns,
///                                              Contains/ContainsTriple
///  * per-entity subject fact lists           — triadic patterns
///  * per-entity directed relation token sets — category mining (R(e))
///
/// All indexes are updated incrementally by AddFact, which is what makes
/// the online updater O(|C(s)|·|C(o)| + f_max) per new fact (paper §4.6).
/// Every member is a value type, so the copy constructor yields an
/// independent graph with the same indexes in the same insertion order.
///
/// Thread compatibility: const methods are safe to call concurrently;
/// AddFact requires external synchronization.
class TemporalKnowledgeGraph {
 public:
  TemporalKnowledgeGraph() = default;

  /// Appends a fact by raw ids; grows entity/relation universes as needed.
  /// Returns the new fact's id.
  FactId AddFact(const Fact& fact);

  /// Appends a fact by symbol names (interned into the dictionaries).
  FactId AddFact(std::string_view subject, std::string_view relation,
                 std::string_view object, Timestamp time);
  FactId AddFact(std::string_view subject, std::string_view relation,
                 std::string_view object, Timestamp start, Timestamp end);

  // -- Universe sizes -------------------------------------------------------

  size_t num_facts() const { return facts_.size(); }
  /// Number of distinct entity ids (max id + 1; ids are dense).
  size_t num_entities() const { return num_entities_; }
  size_t num_relations() const { return num_relations_; }
  size_t num_timestamps() const { return by_time_.size(); }

  // -- Fact access ----------------------------------------------------------

  const std::vector<Fact>& facts() const ANOT_LIFETIME_BOUND {
    return facts_;
  }
  const Fact& fact(FactId id) const ANOT_LIFETIME_BOUND {
    return facts_[id];
  }

  /// All observed timestamps in ascending order with their facts.
  const std::map<Timestamp, std::vector<FactId>>& by_time() const
      ANOT_LIFETIME_BOUND {
    return by_time_;
  }

  /// Interaction sequence of the ordered pair (s, o): fact ids sorted by
  /// (time, id). Returns nullptr when the pair never interacted.
  const std::vector<FactId>* FactsForPair(EntityId s, EntityId o) const
      ANOT_LIFETIME_BOUND;

  /// All pair interaction sequences, keyed by PairKey(s, o). Iteration
  /// order is the pairs' first-interaction order (a container-history
  /// artifact, deterministic but not meaningful); callers needing a
  /// canonical order must still sort.
  const dense_map<uint64_t, std::vector<FactId>>& pair_sequences() const
      ANOT_LIFETIME_BOUND {
    return pair_index_;
  }

  /// Facts with `e` as subject, sorted by (time, id).
  const std::vector<FactId>* FactsBySubject(EntityId e) const
      ANOT_LIFETIME_BOUND;

  /// Directed relation tokens R(e) the entity has interacted with
  /// (OutRelationToken for subject roles, InRelationToken for object roles).
  /// Sets are tiny (≤ 2·|R| entries) and probe-heavy, so they are sorted
  /// flat sets: ascending iteration, binary-search membership, inline
  /// storage for the common small case.
  using TokenSet = sorted_small_set<uint32_t, 8>;
  const TokenSet& RelationTokens(EntityId e) const ANOT_LIFETIME_BOUND;

  /// Exact membership of a (s, r, o, t[, end]) fact. Answered from the
  /// pair sequence: binary search to `time`, then a scan of its equal-time
  /// run.
  bool Contains(const Fact& fact) const;
  /// Whether the triple (s, r, o) occurs at any timestamp (a scan of the
  /// (s, o) pair sequence).
  bool ContainsTriple(EntityId s, RelationId r, EntityId o) const;

  /// Pre-sizes the fact log and the pair and subject indexes for
  /// `expected_facts` appends, so bulk loads (TkgIo::LoadTsv, checkpoint
  /// load) avoid rehash/regrow churn. The by-time index is tree-backed and
  /// needs no reservation. Safe to call at any point; never shrinks.
  void Reserve(size_t expected_facts);

  Timestamp min_time() const { return min_time_; }
  Timestamp max_time() const { return max_time_; }

  /// True when any fact has end != time (duration-based TKG).
  bool has_durations() const { return has_durations_; }

  // -- Symbol names ---------------------------------------------------------

  Dictionary& entity_dict() ANOT_LIFETIME_BOUND { return entity_dict_; }
  Dictionary& relation_dict() ANOT_LIFETIME_BOUND { return relation_dict_; }
  const Dictionary& entity_dict() const ANOT_LIFETIME_BOUND {
    return entity_dict_;
  }
  const Dictionary& relation_dict() const ANOT_LIFETIME_BOUND {
    return relation_dict_;
  }

  /// Human-readable names with an "E<id>" / "R<id>" fallback for graphs
  /// built from raw ids.
  std::string EntityName(EntityId e) const;
  std::string RelationName(RelationId r) const;

  /// AddFact's precondition: every id valid and end >= time.
  static Status ValidateFact(const Fact& fact);

  /// Checks what the fact log determines: every fact passes ValidateFact,
  /// and the universe sizes, duration flag and time bounds match the log.
  /// O(|F|); the indexes AddFact maintains are left to CheckInvariants.
  Status Validate() const;

  /// Debug validator (compiled behind ANOT_VALIDATE, no-op otherwise):
  /// Validate() plus a recompute of every secondary index from facts_,
  /// ANOT_CHECK-failing on the first divergence — bucket/pair/subject
  /// lists complete and sorted by (time, id), relation-token sets exact.
  /// O(|F| log |F|); call at commit boundaries in tests, not per arrival.
  void CheckInvariants() const;

 private:
  std::vector<Fact> facts_;
  size_t num_entities_ = 0;
  size_t num_relations_ = 0;
  bool has_durations_ = false;
  Timestamp min_time_ = kNoTimestamp;
  Timestamp max_time_ = kNoTimestamp;

  // by_time_ stays a std::map: split/monitor/candidate passes consume it
  // through ordered ascending iteration, which a hash table cannot serve
  // without a sort per scan. The two hash-backed indexes below are
  // dense_maps (open addressing, contiguous slots) — the scorer/updater
  // hot path probes them per arrival.
  std::map<Timestamp, std::vector<FactId>> by_time_;
  dense_map<uint64_t, std::vector<FactId>> pair_index_;
  dense_map<EntityId, std::vector<FactId>> subject_index_;
  std::vector<TokenSet> relation_tokens_;

  Dictionary entity_dict_;
  Dictionary relation_dict_;

  void InsertSortedByTime(std::vector<FactId>* list, FactId id);
};

}  // namespace anot
