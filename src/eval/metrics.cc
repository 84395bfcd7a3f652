#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

namespace anot {

double PrAuc(std::vector<ScoredExample> examples) {
  double total_pos = 0;
  for (const auto& [score, label] : examples) total_pos += label;
  if (total_pos == 0 || examples.empty()) return 0.0;

  std::sort(examples.begin(), examples.end(),
            [](const ScoredExample& a, const ScoredExample& b) {
              return a.first > b.first;
            });
  double tp = 0, fp = 0, auc = 0, prev_recall = 0;
  size_t i = 0;
  while (i < examples.size()) {
    // Process blocks of tied scores together.
    size_t j = i;
    while (j < examples.size() && examples[j].first == examples[i].first) {
      if (examples[j].second) ++tp; else ++fp;
      ++j;
    }
    const double recall = tp / total_pos;
    const double precision = tp / (tp + fp);
    auc += precision * (recall - prev_recall);
    prev_recall = recall;
    i = j;
  }
  return auc;
}

double FBeta(double precision, double recall, double beta) {
  const double b2 = beta * beta;
  const double denom = b2 * precision + recall;
  if (denom <= 0.0) return 0.0;
  return (1.0 + b2) * precision * recall / denom;
}

ThresholdMetrics MetricsAtThreshold(
    const std::vector<ScoredExample>& examples, double threshold,
    double beta) {
  double tp = 0, fp = 0, fn = 0;
  for (const auto& [score, label] : examples) {
    const bool predicted = score >= threshold;
    if (predicted && label) ++tp;
    if (predicted && !label) ++fp;
    if (!predicted && label) ++fn;
  }
  ThresholdMetrics out;
  out.threshold = threshold;
  out.precision = (tp + fp) > 0 ? tp / (tp + fp) : 0.0;
  out.recall = (tp + fn) > 0 ? tp / (tp + fn) : 0.0;
  out.f_beta = FBeta(out.precision, out.recall, beta);
  return out;
}

ThresholdMetrics TuneThreshold(std::vector<ScoredExample> examples,
                               double beta) {
  double total_pos = 0;
  for (const auto& [score, label] : examples) total_pos += label;
  if (total_pos == 0 || examples.empty()) return {};

  std::sort(examples.begin(), examples.end(),
            [](const ScoredExample& a, const ScoredExample& b) {
              return a.first > b.first;
            });
  // Sweep thresholds at block boundaries; the prefix [0, i) is predicted
  // positive when the threshold equals examples[i-1].first.
  ThresholdMetrics best;
  double tp = 0, fp = 0;
  size_t i = 0;
  while (i < examples.size()) {
    size_t j = i;
    while (j < examples.size() && examples[j].first == examples[i].first) {
      if (examples[j].second) ++tp; else ++fp;
      ++j;
    }
    const double precision = tp / (tp + fp);
    const double recall = tp / total_pos;
    const double f = FBeta(precision, recall, beta);
    if (f > best.f_beta) {
      best.threshold = examples[i].first;
      best.precision = precision;
      best.recall = recall;
      best.f_beta = f;
    }
    i = j;
  }
  return best;
}

double NearestRankPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace anot
