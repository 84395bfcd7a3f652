#pragma once

#include <vector>

#include "core/options.h"
#include "mdl/encoding.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/containers.h"

namespace anot {

/// \brief A candidate's assertion facts regrouped by timestamp (CSR
/// layout, ascending timestamps).
///
/// Cached once per candidate by the builder so each greedy-selection
/// sweep walks a flat, timestamp-sorted array instead of rebuilding a
/// per-candidate hash map; the sorted group order makes every cost-delta
/// summation deterministic.
struct DeltaHistogram {
  std::vector<Timestamp> times;    // unique, ascending
  std::vector<uint32_t> offsets;   // times.size() + 1 offsets into facts
  std::vector<FactId> facts;       // grouped by time; input order within

  bool empty() const { return times.empty(); }
  size_t num_times() const { return times.size(); }
};

/// Regroups `fact_ids` by their start timestamp in `graph`. Depends only
/// on the id list and the graph, so it can be filled by any shard of the
/// parallel costing pass without affecting determinism.
DeltaHistogram BuildDeltaHistogram(const TemporalKnowledgeGraph& graph,
                                   const std::vector<FactId>& fact_ids);

/// \brief A candidate atomic rule with its correct assertions (§4.3.2).
struct RuleCandidate {
  AtomicRule rule;
  /// Facts this rule describes (A_v).
  std::vector<FactId> assertions;
  /// Optimal-prefix-code accounting for Eq. 6.
  EntropyAccumulator subject_entropy;
  EntropyAccumulator object_entropy;
  /// Model + assertion bits and the per-timestamp assertion histogram,
  /// filled by the builder.
  double model_bits = 0.0;
  double assertion_bits = 0.0;
  DeltaHistogram by_time;
};

/// \brief A candidate rule edge with its assertions and timespans.
///
/// Each assertion is anchored on its *tail fact*: a tail fact is counted
/// at most once per edge (paired with its most recent head instantiation),
/// which bounds |A_e| <= |A_tail| and keeps Eq. 7 affordable.
///
/// Assertion encoding (Eq. 7 realization): given the edge and the TKG, the
/// head partner is *determined* by the instantiation procedure (most
/// recent matching fact), so the only residual information per assertion
/// is its occurrence timespan. We charge a prefix code over timespans
/// bucketed at the tolerance L: edges with consistent timing are cheap to
/// describe and win selection; incidental co-occurrences with scattered
/// timespans stay expensive.
struct EdgeCandidate {
  RuleEdgeKind kind = RuleEdgeKind::kChain;
  uint32_t head = 0;  // indexes into the RuleCandidate vector
  uint32_t mid = 0;   // unused for chain edges
  uint32_t tail = 0;
  std::vector<FactId> tail_facts;
  std::vector<Timestamp> timespans;  // parallel to tail_facts
  EntropyAccumulator timespan_entropy;
  /// Model + assertion bits and the per-timestamp tail-fact histogram,
  /// filled by the builder.
  double model_bits = 0.0;
  double assertion_bits = 0.0;
  DeltaHistogram by_time;

  size_t support() const { return tail_facts.size(); }
};

/// \brief Candidate pools generated from the offline TKG.
struct CandidatePool {
  std::vector<RuleCandidate> rules;
  /// The materialized edges: those at or above their admissibility bound,
  /// capped at DetectorOptions::max_candidate_edges.
  std::vector<EdgeCandidate> edges;
  /// rule -> index in `rules`.
  dense_map<AtomicRule, uint32_t, AtomicRuleHash> rule_index;
  /// Distinct edge keys the scan generated, before the bound and the cap.
  size_t num_generated_edges = 0;
};

/// \brief Generates candidate atomic rules and rule edges (§4.3.2).
///
/// Atomic rules: every (c_s, r, c_o) with c_s ∈ C(s), c_o ∈ C(o) observed
/// on some fact. Chain edges: ordered relation pairs within each entity
/// pair's interaction sequence (bounded lookback). Triadic edges: closures
/// (s,r_m,p), (h,r_n,p) co-occurring within L followed by (s,r_p,h).
///
/// Generation is serial: each phase is one scan (facts in id order, pair
/// sequences in key order) that appends rules to the pool and interns edge
/// keys in first-occurrence order, so the pool is a pure function of the
/// graph, the category function and the options.
/// `AnoTOptions::num_threads` parallelizes the category passes and
/// candidate costing, not this.
///
/// Edges are counted before they are built. Only an edge whose support
/// reaches k_min = MinAdmissibleEdgeSupport (mdl/encoding.h) is
/// materialized: below it, even associating every tail fact saves at most
/// support * log2 U2 bits, no more than the edge's own model bits, so
/// selection could never admit it. Survivors keep their first-occurrence
/// order and feed their entropy accumulators in scan order, so the rule
/// graph is the one selection over every generated edge would build.
class CandidateGenerator {
 public:
  /// The fourth parameter is unused: generation runs serially. It is kept
  /// so existing four-argument callers still compile.
  CandidateGenerator(const TemporalKnowledgeGraph& graph,
                     const CategoryFunction& categories,
                     const DetectorOptions& options, size_t /*unused*/ = 1);

  /// Runs generation. Edges below their admissibility bound k_min are
  /// never built; if more than options.max_candidate_edges survive, the
  /// lowest-support survivors are dropped (stable, so deterministic).
  CandidatePool Generate() const;

 private:
  struct EdgeScan;

  void GenerateRules(CandidatePool* pool) const;
  /// The edge phases intern edge keys into `scan` and log each assertion;
  /// the triadic phase continues the chain phase's slot numbering.
  void ScanChainEdges(const CandidatePool& pool, EdgeScan* scan) const;
  void ScanTriadicEdges(const CandidatePool& pool, EdgeScan* scan) const;

  // anot-own: stack-scoped generation pass owned by RuleGraphBuilder's
  // Build() frame — the referenced graph/categories/options outlive that
  // whole pipeline call; generators are never stored or moved.
  const TemporalKnowledgeGraph& graph_;
  // anot-own: same Build()-frame contract as graph_.
  const CategoryFunction& categories_;
  // anot-own: same Build()-frame contract as graph_.
  const DetectorOptions& options_;
};

}  // namespace anot
