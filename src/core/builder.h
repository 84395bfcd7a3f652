#pragma once

#include <atomic>
#include <memory>

#include "core/candidates.h"
#include "core/options.h"
#include "mdl/ledger.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"

namespace anot {

/// \brief Outcome of an offline rule-graph construction (Algorithm 1).
struct BuildReport {
  double build_seconds = 0.0;
  size_t num_categories = 0;
  /// Frequent relation combinations PrefixSpan mined for C(·), and whether
  /// its pattern cap left any unmined (CategoryMiningStats). Set by
  /// AnoT's build; a bare RuleGraphBuilder leaves them at zero.
  size_t num_mined_combinations = 0;
  bool combination_cap_hit = false;
  size_t num_rules = 0;            // selected (static) rule nodes
  size_t num_temporal_rules = 0;   // edge-only rule nodes
  size_t num_edges = 0;
  size_t num_candidate_rules = 0;
  /// Every distinct edge key candidate generation saw.
  size_t num_generated_candidate_edges = 0;
  /// The materialized pool the edge pass ranks: generated edges at or
  /// above their admissibility bound k_min, then capped at
  /// DetectorOptions::max_candidate_edges.
  size_t num_candidate_edges = 0;
  /// Fraction of training facts mapped to a selected rule (Table 4's
  /// "proportion of explained facts").
  double explained_fraction = 0.0;
  /// Fraction additionally associated through a selected edge.
  double associated_fraction = 0.0;
  /// Final description-length components, in bits.
  double model_bits = 0.0;       // L(M)
  double assertion_bits = 0.0;   // L(A_G)
  double negative_bits = 0.0;    // L(N_G) — the monitor's budget
  /// The Eq. 8 universes (mdl/encoding.h) L(N_G) was priced with; the
  /// monitor prices unseen knowledge with the same two.
  double tier1_universe = 0.0;
  double tier2_universe = 0.0;
  double total_bits() const {
    return model_bits + assertion_bits + negative_bits;
  }

  /// The persisted field list, in checkpoint order (io/checkpoint.cc).
  /// build_seconds is wall-clock time, not state, so it is left out: a
  /// loaded detector reports 0 and two identical builds save equal bytes.
  template <class V>
  void Fields(V& v) {
    v(num_categories);
    v(num_mined_combinations);
    v(combination_cap_hit);
    v(num_rules);
    v(num_temporal_rules);
    v(num_edges);
    v(num_candidate_rules);
    v(num_generated_candidate_edges);
    v(num_candidate_edges);
    v(explained_fraction);
    v(associated_fraction);
    v(model_bits);
    v(assertion_bits);
    v(negative_bits);
    v(tier1_universe);
    v(tier2_universe);
  }
};

/// \brief Greedy MDL construction of the optimal rule graph (Algorithm 1).
///
/// Candidates are ranked by error-cost reduction Δ (then |A|, then id) and
/// admitted while they shrink the total description length; selection
/// passes repeat until a full pass admits nothing. Rules referenced only
/// by edges are added as temporal-only nodes (§4.3.3).
class RuleGraphBuilder {
 public:
  /// `num_threads` parallelizes per-candidate cost computation only:
  /// candidate generation is one serial scan and the greedy selection
  /// passes run serially in rank order. 0 = hardware concurrency. Output
  /// is bit-identical for every thread count.
  RuleGraphBuilder(const TemporalKnowledgeGraph& graph,
                   const CategoryFunction& categories,
                   const DetectorOptions& options, size_t num_threads = 1);

  struct Output {
    std::unique_ptr<RuleGraph> rule_graph;
    BuildReport report;
  };

  /// Runs candidate generation + selection end to end.
  ///
  /// `cancel` (optional) is polled between the pipeline stages (coarse
  /// granularity: generation, costing, each greedy pass); an abandoned
  /// background rebuild sets it to stop burning CPU. Once it reads true
  /// the returned output is INCOMPLETE and must be discarded.
  Output Build(const std::atomic<bool>* cancel = nullptr) const;

 private:
  // anot-own: the builder is a stack-scoped pipeline object — the caller
  // (AnoT::BuildStructures / tests) constructs it after these owners and
  // consumes Build() before any of them can die; builders are never
  // stored or moved.
  const TemporalKnowledgeGraph& graph_;
  // anot-own: same stack-scoped contract as graph_.
  const CategoryFunction& categories_;
  // anot-own: same stack-scoped contract as graph_.
  const DetectorOptions& options_;
  size_t num_threads_ = 1;
};

}  // namespace anot
