// Figure 6: inductive detection F-score across test timestamps with and
// without the updater module (ICEWS14 and GDELT).

#include "anomaly/injector.h"
#include "common.h"
#include "eval/metrics.h"

using namespace anot;
using namespace anot::bench;

namespace {

/// Scores the test stream bucketed into `buckets` timestamp groups and
/// returns the per-bucket conceptual F0.5 (threshold tuned on validation).
/// Both windows flow through the protocol's per-fact stream loop: each
/// arrival is scored, then, `with_updater`, fed back via ObserveValid when
/// valid.
std::vector<double> FScoreSeries(const Workload& w, bool with_updater,
                                 size_t buckets) {
  AnoTModel model(DefaultAnoTOptions(w.config.name));
  auto train = Subgraph(*w.graph, w.split.train);
  model.Fit(*train);

  AnomalyInjector val_inj(InjectorConfig{.seed = 99});
  EvalStream val = val_inj.Inject(*w.graph, w.split.val);
  std::vector<ScoredExample> val_examples;
  ForEachScoredArrival(
      val.arrivals, &model, /*observe_valid=*/with_updater,
      [&](size_t i, const AnomalyModel::TaskScores& s) {
        val_examples.push_back(
            {s.conceptual, val.arrivals[i].label == AnomalyType::kConceptual});
      });
  const double threshold = TuneThreshold(val_examples, 0.5).threshold;

  AnomalyInjector test_inj(InjectorConfig{});
  EvalStream test = test_inj.Inject(*w.graph, w.split.test);
  const Timestamp t0 = test.arrivals.front().fact.time;
  const Timestamp t1 = test.arrivals.back().fact.time;
  const double width =
      std::max<double>(1.0, static_cast<double>(t1 - t0 + 1) /
                                static_cast<double>(buckets));
  std::vector<std::vector<ScoredExample>> bucketed(buckets);
  ForEachScoredArrival(
      test.arrivals, &model, /*observe_valid=*/with_updater,
      [&](size_t i, const AnomalyModel::TaskScores& s) {
        const LabeledFact& lf = test.arrivals[i];
        const size_t b = std::min<size_t>(
            buckets - 1, static_cast<size_t>(
                             static_cast<double>(lf.fact.time - t0) / width));
        bucketed[b].push_back(
            {s.conceptual, lf.label == AnomalyType::kConceptual});
      });
  std::vector<double> series;
  for (auto& bucket : bucketed) {
    series.push_back(MetricsAtThreshold(bucket, threshold, 0.5).f_beta);
  }
  return series;
}

}  // namespace

int main() {
  PrintHeader("Figure 6: F-score across test timestamps (+/- updater)");
  constexpr size_t kBuckets = 10;
  for (const char* dataset : {"icews14", "gdelt"}) {
    Workload w = MakeWorkload(dataset);
    auto with_updater = FScoreSeries(w, true, kBuckets);
    auto without = FScoreSeries(w, false, kBuckets);
    std::printf("%s (conceptual F0.5 per test-period decile):\n",
                w.config.name.c_str());
    std::printf("  bucket:     ");
    for (size_t b = 0; b < kBuckets; ++b) std::printf("%6zu", b + 1);
    std::printf("\n  with updater:");
    for (double f : with_updater) std::printf("%6.2f", f);
    std::printf("\n  without:     ");
    for (double f : without) std::printf("%6.2f", f);
    double gain = 0;
    for (size_t b = 0; b < kBuckets; ++b) gain += with_updater[b] - without[b];
    std::printf("\n  mean gain from updater: %+.3f\n\n", gain / kBuckets);
  }
  return 0;
}
