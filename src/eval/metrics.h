#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace anot {

/// \brief A scored binary-classification example: (anomaly score, label).
/// Higher scores must indicate the positive class.
using ScoredExample = std::pair<double, bool>;

/// Area under the precision-recall curve (the paper's "AUC", §5.2),
/// computed by sweeping the ranking. Ties are broken pessimistically by
/// processing equal scores as one block. Returns 0 when no positives.
double PrAuc(std::vector<ScoredExample> examples);

/// F_beta score from counts (paper: beta = 0.5 to emphasize precision).
double FBeta(double precision, double recall, double beta);

struct ThresholdMetrics {
  double threshold = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f_beta = 0.0;
};

/// Metrics at a fixed decision threshold (score >= threshold => positive).
ThresholdMetrics MetricsAtThreshold(const std::vector<ScoredExample>& examples,
                                    double threshold, double beta);

/// Picks the threshold maximizing F_beta (validation-set tuning, §5.2).
/// Candidate thresholds are the observed scores.
ThresholdMetrics TuneThreshold(std::vector<ScoredExample> examples,
                               double beta);

/// Nearest-rank percentile of an ascending-sorted sample: the
/// ceil(p * n)-th smallest value (1-based, clamped to [1, n]), p in [0, 1].
/// Returns 0 for an empty sample.
double NearestRankPercentile(const std::vector<double>& sorted, double p);

}  // namespace anot
