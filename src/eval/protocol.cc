#include "eval/protocol.h"

#include <algorithm>

#include "util/timer.h"

namespace anot {

namespace {

/// Scores a labeled stream and splits it into the three task rankings.
struct TaskExamples {
  std::vector<ScoredExample> conceptual;
  std::vector<ScoredExample> time;
  std::vector<ScoredExample> missing;
};

TaskExamples ScoreStream(const EvalStream& stream, AnomalyModel* model,
                         bool observe_valid,
                         std::vector<double>* latencies_us = nullptr) {
  TaskExamples out;
  out.conceptual.reserve(stream.arrivals.size());
  out.time.reserve(stream.arrivals.size());
  ForEachScoredArrival(
      stream.arrivals, model, observe_valid,
      [&](size_t i, const AnomalyModel::TaskScores& s) {
        const LabeledFact& lf = stream.arrivals[i];
        // Conceptual task: conceptual anomalies vs everything arriving.
        out.conceptual.push_back(
            {s.conceptual, lf.label == AnomalyType::kConceptual});
        // Time task: time anomalies vs everything else arriving.
        out.time.push_back({s.time, lf.label == AnomalyType::kTime});
      },
      latencies_us);
  // Missing candidates never feed back into the model. Their score-only
  // cost is excluded from the per-arrival latency samples — mixing them in
  // would dilute the arrival tail the stats exist to expose.
  out.missing.reserve(stream.missing_candidates.size());
  ForEachScoredArrival(
      stream.missing_candidates, model, /*observe_valid=*/false,
      [&](size_t i, const AnomalyModel::TaskScores& s) {
        out.missing.push_back(
            {s.missing,
             stream.missing_candidates[i].label == AnomalyType::kMissing});
      });
  return out;
}

TaskResult Evaluate(const std::vector<ScoredExample>& val,
                    const std::vector<ScoredExample>& test, double beta) {
  TaskResult out;
  const ThresholdMetrics tuned = TuneThreshold(val, beta);
  const ThresholdMetrics at =
      MetricsAtThreshold(test, tuned.threshold, beta);
  out.precision = at.precision;
  out.f_beta = at.f_beta;
  out.pr_auc = PrAuc(test);
  return out;
}

}  // namespace

void ForEachScoredArrival(
    const std::vector<LabeledFact>& arrivals, AnomalyModel* model,
    bool observe_valid,
    const std::function<void(size_t, const AnomalyModel::TaskScores&)>&
        visit,
    std::vector<double>* latencies_us) {
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const LabeledFact& lf = arrivals[i];
    WallTimer timer;
    const AnomalyModel::TaskScores scores = model->Score(lf.fact);
    double elapsed_s = timer.ElapsedSeconds();
    visit(i, scores);
    // The arrival was scored against the pre-ingest state; the next one
    // must see it ingested.
    if (observe_valid && lf.label == AnomalyType::kValid) {
      WallTimer ingest_timer;
      model->ObserveValid(lf.fact);
      elapsed_s += ingest_timer.ElapsedSeconds();
    }
    if (latencies_us != nullptr) latencies_us->push_back(elapsed_s * 1e6);
  }
}

EvalResult RunProtocol(const TemporalKnowledgeGraph& full,
                       const TimeSplit& split, AnomalyModel* model,
                       const ProtocolOptions& options) {
  EvalResult result;
  result.model = model->name();

  // Offline phase.
  auto train = Subgraph(full, split.train);
  WallTimer fit_timer;
  model->Fit(*train);
  result.fit_seconds = fit_timer.ElapsedSeconds();

  // Validation window: tune thresholds, then let the model absorb it.
  InjectorConfig val_injector = options.injector;
  val_injector.seed = options.injector.seed * 2654435761u + 1;
  AnomalyInjector val_inj(val_injector);
  EvalStream val_stream = val_inj.Inject(full, split.val);
  TaskExamples val_examples =
      ScoreStream(val_stream, model, options.observe_valid);

  // Test window. Throughput is wall-clock over the *whole* window —
  // scoring plus observe-valid ingest — not just the scoring calls: an
  // online deployment pays for both.
  AnomalyInjector test_inj(options.injector);
  EvalStream test_stream = test_inj.Inject(full, split.test);
  WallTimer test_timer;
  std::vector<double> latencies_us;
  TaskExamples test_examples = ScoreStream(
      test_stream, model, options.observe_valid, &latencies_us);
  result.test_seconds = test_timer.ElapsedSeconds();
  const size_t scored =
      test_stream.arrivals.size() + test_stream.missing_candidates.size();
  result.throughput = result.test_seconds > 0
                          ? static_cast<double>(scored) / result.test_seconds
                          : 0.0;
  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    result.latency_p50_us = NearestRankPercentile(latencies_us, 0.50);
    result.latency_p99_us = NearestRankPercentile(latencies_us, 0.99);
    result.latency_max_us = latencies_us.back();
  }

  result.conceptual = Evaluate(val_examples.conceptual,
                               test_examples.conceptual, options.beta);
  result.time =
      Evaluate(val_examples.time, test_examples.time, options.beta);
  result.missing = Evaluate(val_examples.missing, test_examples.missing,
                            options.beta);
  return result;
}

}  // namespace anot
