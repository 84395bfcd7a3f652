// Online monitoring of an ICEWS-like political event stream: the full
// detector-updater-monitor loop of Figure 2. The monitor prices the
// stream's unexplained knowledge against the offline build's L(N_G)
// (Eq. 11) and, with auto_refresh on, rebuilds the rule graph once the
// stream costs more; the program prints how much of that budget the test
// window used.
//
//   ./build/political_stream

#include <cstdio>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "datagen/presets.h"
#include "eval/metrics.h"
#include "tkg/split.h"

using namespace anot;

int main() {
  // A small ICEWS14-like world.
  GeneratorConfig cfg = DatasetPresets::Icews14(0.06);
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto offline = Subgraph(*graph, split.train);

  AnoTOptions options;
  options.detector.timespan_tolerance = 10;
  options.auto_refresh = true;  // the monitor may trigger a rebuild
  AnoT anot = AnoT::Build(*offline, options);
  std::printf("offline build: %zu rules, %zu edges (%.1fs)\n",
              anot.rules().num_rules(), anot.rules().num_edges(),
              anot.report().build_seconds);

  // Tune validity thresholds on the validation window.
  AnomalyInjector val_injector(InjectorConfig{.seed = 5});
  EvalStream val = val_injector.Inject(*graph, split.val);
  std::vector<ScoredExample> s_examples, t_examples;
  for (const auto& lf : val.arrivals) {
    const Scores s = anot.Score(lf.fact);
    s_examples.push_back(
        {s.static_score, lf.label == AnomalyType::kConceptual});
    t_examples.push_back({s.temporal_score, lf.label == AnomalyType::kTime});
  }
  const double thr_s = TuneThreshold(s_examples, 0.5).threshold;
  const double thr_t = TuneThreshold(t_examples, 0.5).threshold;
  anot.SetValidityThresholds(thr_s, thr_t);
  std::printf("tuned thresholds: static %.4g, temporal %.4g\n\n", thr_s,
              thr_t);

  // Stream the test window through ProcessArrival.
  AnomalyInjector test_injector(InjectorConfig{});
  EvalStream test = test_injector.Inject(*graph, split.test);
  size_t flagged = 0, correct_flags = 0;
  for (const auto& lf : test.arrivals) {
    const Scores s = anot.ProcessArrival(lf.fact);
    const bool is_flagged =
        s.static_score > thr_s ||
        (s.temporal_evaluated && s.temporal_score > thr_t);
    if (is_flagged) {
      ++flagged;
      correct_flags += lf.label != AnomalyType::kValid;
    }
  }
  std::printf("stream: %zu arrivals, %zu flagged (precision %.3f)\n",
              test.arrivals.size(), flagged,
              flagged > 0 ? static_cast<double>(correct_flags) / flagged
                          : 0.0);
  const double online_bits = anot.monitor().online_negative_bits();
  const double budget_bits = anot.report().negative_bits;
  std::printf("monitor: online negative cost %.0f of %.0f budget bits "
              "(ratio %.3f); refreshes triggered: %zu\n",
              online_bits, budget_bits, online_bits / budget_bits,
              anot.refresh_count());
  std::printf("rule graph now: %zu rules, %zu edges (grown online)\n",
              anot.rules().num_rules(), anot.rules().num_edges());
  return 0;
}
