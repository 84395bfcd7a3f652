#pragma once

#include <cstddef>
#include <limits>

#include "mining/category_function.h"
#include "tkg/types.h"

namespace anot {

/// \brief Which time annotation anchors a fact during association
/// (duration TKGs, §4.7). Point facts have start == end, so all four
/// combinations coincide.
enum class TimeAnchor { kStart, kEnd };

inline Timestamp AnchorTime(const Fact& f, TimeAnchor anchor) {
  return anchor == TimeAnchor::kStart ? f.time : f.end;
}

/// \brief How θ in Eq. 10 counts preserved timespans.
///
/// The paper's prose says θ "indicates the gap between the timespan of the
/// instantiations and the preserved timespans", yet the printed formula
/// counts *agreeing* spans (|τ - Δt| <= L), which would make evidence
/// weaker the better the timing matches. kMismatch (default) counts
/// *disagreeing* spans, matching the prose semantics; kAsPrinted keeps the
/// printed formula. Both are exercised by bench/exp_ablation_theta.
enum class ThetaMode { kMismatch, kAsPrinted };

/// \brief How candidates are ranked before greedy selection (§4.3.3).
enum class RankingMode {
  kDeltaCost,       // paper: ΔL first, then |A|, then id
  kAssertionsOnly,  // ablation: |A| only (Table 3 variant)
};

/// \brief All detector hyper-parameters (paper §5.2 grid).
struct DetectorOptions {
  CategoryFunctionOptions category;

  /// Cap on candidate rule edges (paper: 50000).
  size_t max_candidate_edges = 50000;

  /// Maximum recursion steps K during temporal scoring (paper: {1,2,3,4}).
  size_t max_recursion_steps = 2;

  /// Timespan restriction L, in ticks (paper: {10,100,1000,2000}); bounds
  /// both triadic co-occurrence and timespan agreement.
  Timestamp timespan_tolerance = 100;

  /// Ablation switches (Table 3). The "-category aggregation" variant sets
  /// category.max_aggregation_rounds = 0.
  bool use_triadic = true;
  bool use_recursion = true;
  bool unit_rule_weight = false;  // replace |A_v| by 1 in Eqs. 9-10
  RankingMode ranking = RankingMode::kDeltaCost;

  ThetaMode theta_mode = ThetaMode::kMismatch;

  /// Duration-TKG anchors (§4.7). Point TKGs ignore these.
  TimeAnchor head_anchor = TimeAnchor::kStart;
  TimeAnchor tail_anchor = TimeAnchor::kStart;

  /// The persisted field list, in checkpoint order (io/checkpoint.cc). An
  /// enum field names its largest enumerator, the bound a reader enforces;
  /// the bound on L makes a reader reject a negative tolerance.
  template <class V>
  void Fields(V& v) {
    category.Fields(v);
    v(max_candidate_edges);
    v(max_recursion_steps);
    v(timespan_tolerance, std::numeric_limits<Timestamp>::max());
    v(use_triadic);
    v(use_recursion);
    v(unit_rule_weight);
    v(ranking, RankingMode::kAssertionsOnly);
    v(theta_mode, ThetaMode::kAsPrinted);
    v(head_anchor, TimeAnchor::kEnd);
    v(tail_anchor, TimeAnchor::kEnd);
  }
};

}  // namespace anot
