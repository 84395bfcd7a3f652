#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "anomaly/injector.h"
#include "eval/metrics.h"
#include "eval/model.h"
#include "tkg/graph.h"
#include "tkg/split.h"

namespace anot {

/// \brief Per-anomaly-type results: the columns of Table 2.
struct TaskResult {
  double precision = 0.0;
  double f_beta = 0.0;
  double pr_auc = 0.0;
};

/// \brief Full outcome of one (dataset, model) evaluation.
struct EvalResult {
  std::string model;
  std::string dataset;
  TaskResult conceptual;
  TaskResult time;
  TaskResult missing;
  double fit_seconds = 0.0;
  /// Wall-clock of the whole test window — scoring *and* observe-valid
  /// ingest — the latency budget an online deployment actually pays.
  double test_seconds = 0.0;
  /// Test-stream throughput, samples/second (Figures 7-8), measured over
  /// `test_seconds`.
  double throughput = 0.0;
  /// Per-arrival latency over the test window, microseconds: the
  /// arrival's own Score call plus, for a valid arrival, its own
  /// ObserveValid ingest (and any refresh stall that ingest triggers), so
  /// p99/max expose serving stalls that throughput averages away — the
  /// number the async refresh mode exists to flatten. Nearest-rank
  /// percentiles.
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;
};

/// \brief The paper's evaluation protocol (§5.1-5.2): 60/10/30 timestamp
/// split, 15% disjoint injection per anomaly type, thresholds tuned by
/// F_0.5 on validation, metrics reported on test.
struct ProtocolOptions {
  double train_fraction = 0.6;
  double val_fraction = 0.1;
  double beta = 0.5;
  InjectorConfig injector;
  /// Feed knowledge scored as valid back to the model between windows
  /// (AnoT's updater; frequency/recency baselines). False is the
  /// "-updater" ablation of Table 3, Table 7 and Figure 6: the model keeps
  /// its fitted state through both windows. The paper's rule-graph refresh stays
  /// disabled during evaluation for fairness.
  bool observe_valid = true;
};

/// The paper's online loop over `arrivals`, one fact at a time: Score the
/// fact, call `visit(index, scores)`, then — for a valid arrival when
/// `observe_valid` — feed it back via ObserveValid before the next fact is
/// scored (Alg. 2 then Alg. 3). The building block of RunProtocol's
/// stream scoring, exposed for harnesses that bucket or aggregate scores
/// themselves (e.g. the Figure 6 updater experiment). When `latencies_us`
/// is non-null, one per-arrival latency sample (see EvalResult) is
/// appended per arrival, in order.
void ForEachScoredArrival(
    const std::vector<LabeledFact>& arrivals, AnomalyModel* model,
    bool observe_valid,
    const std::function<void(size_t, const AnomalyModel::TaskScores&)>&
        visit,
    std::vector<double>* latencies_us = nullptr);

/// Runs the protocol for one model over an already generated full TKG.
EvalResult RunProtocol(const TemporalKnowledgeGraph& full,
                       const TimeSplit& split, AnomalyModel* model,
                       const ProtocolOptions& options);

}  // namespace anot
