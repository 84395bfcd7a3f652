#include <gtest/gtest.h>

#include "anomaly/injector.h"
#include "datagen/generator.h"
#include "eval/anot_model.h"
#include "eval/metrics.h"
#include "eval/protocol.h"
#include "eval/report.h"
#include "tkg/split.h"

namespace anot {
namespace {

// ----------------------------------------------------------------- PR-AUC

TEST(PrAucTest, PerfectRankingIsOne) {
  std::vector<ScoredExample> ex{{0.9, true}, {0.8, true}, {0.2, false},
                                {0.1, false}};
  EXPECT_DOUBLE_EQ(PrAuc(ex), 1.0);
}

TEST(PrAucTest, InvertedRankingIsPoor) {
  std::vector<ScoredExample> ex{{0.9, false}, {0.8, false}, {0.2, true},
                                {0.1, true}};
  EXPECT_LT(PrAuc(ex), 0.55);
}

TEST(PrAucTest, RandomScoresNearBaseRate) {
  Rng rng(3);
  std::vector<ScoredExample> ex;
  for (int i = 0; i < 4000; ++i) {
    ex.push_back({rng.UniformDouble(), rng.Bernoulli(0.2)});
  }
  EXPECT_NEAR(PrAuc(ex), 0.2, 0.04);
}

TEST(PrAucTest, NoPositivesIsZero) {
  EXPECT_DOUBLE_EQ(PrAuc({{0.5, false}}), 0.0);
  EXPECT_DOUBLE_EQ(PrAuc({}), 0.0);
}

TEST(PrAucTest, TiesHandledAsBlock) {
  // All scores equal: AUC == base rate regardless of input order.
  std::vector<ScoredExample> ex{{0.5, true}, {0.5, false}, {0.5, false},
                                {0.5, true}};
  EXPECT_DOUBLE_EQ(PrAuc(ex), 0.5);
}

// ----------------------------------------------------------------- F-beta

TEST(FBetaTest, KnownValues) {
  EXPECT_DOUBLE_EQ(FBeta(1.0, 1.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(FBeta(0.0, 1.0, 0.5), 0.0);
  // beta=0.5 weights precision more: P=1,R=0.5 scores higher than
  // P=0.5,R=1.
  EXPECT_GT(FBeta(1.0, 0.5, 0.5), FBeta(0.5, 1.0, 0.5));
  // beta=1 is symmetric.
  EXPECT_DOUBLE_EQ(FBeta(1.0, 0.5, 1.0), FBeta(0.5, 1.0, 1.0));
}

// ------------------------------------------------------------- thresholds

TEST(ThresholdTest, TuneFindsSeparatingThreshold) {
  std::vector<ScoredExample> ex{{0.9, true},  {0.85, true}, {0.8, true},
                                {0.3, false}, {0.2, false}, {0.1, false}};
  auto best = TuneThreshold(ex, 0.5);
  EXPECT_DOUBLE_EQ(best.precision, 1.0);
  EXPECT_DOUBLE_EQ(best.recall, 1.0);
  EXPECT_DOUBLE_EQ(best.f_beta, 1.0);
  EXPECT_GE(best.threshold, 0.8);

  auto at = MetricsAtThreshold(ex, best.threshold, 0.5);
  EXPECT_DOUBLE_EQ(at.f_beta, 1.0);
}

TEST(ThresholdTest, MetricsAtExtremeThresholds) {
  std::vector<ScoredExample> ex{{0.9, true}, {0.1, false}};
  auto none = MetricsAtThreshold(ex, 10.0, 0.5);
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  auto all = MetricsAtThreshold(ex, -10.0, 0.5);
  EXPECT_DOUBLE_EQ(all.precision, 0.5);
  EXPECT_DOUBLE_EQ(all.recall, 1.0);
}

TEST(ThresholdTest, EmptyAndDegenerateInputs) {
  EXPECT_DOUBLE_EQ(TuneThreshold({}, 0.5).f_beta, 0.0);
  EXPECT_DOUBLE_EQ(TuneThreshold({{0.5, false}}, 0.5).f_beta, 0.0);
}

// ------------------------------------------------------------- percentile

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(NearestRankPercentile({}, 0.5), 0.0);
  EXPECT_EQ(NearestRankPercentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(NearestRankPercentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(NearestRankPercentile({7.0}, 1.0), 7.0);
  const std::vector<double> ten{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  // ceil(p * n)-th smallest: the 5th of ten for the median, the 10th for
  // p99, the 1st for p0.
  EXPECT_EQ(NearestRankPercentile(ten, 0.5), 5.0);
  EXPECT_EQ(NearestRankPercentile(ten, 0.99), 10.0);
  EXPECT_EQ(NearestRankPercentile(ten, 0.0), 1.0);
}

// --------------------------------------------------------------- Reporter

TEST(ReporterTest, RenderTableAligns) {
  std::string out = Reporter::RenderTable({"a", "model"},
                                          {{"1", "AnoT"}, {"22", "DE"}});
  EXPECT_NE(out.find("| a  | model |"), std::string::npos);
  EXPECT_NE(out.find("| 22 | DE    |"), std::string::npos);
}

TEST(ReporterTest, ComparisonGroupsByDataset) {
  EvalResult r;
  r.model = "AnoT";
  r.dataset = "ICEWS14";
  r.conceptual = {0.9, 0.8, 0.95};
  std::string out = Reporter::RenderComparison({r});
  EXPECT_NE(out.find("== ICEWS14 =="), std::string::npos);
  EXPECT_NE(out.find("AnoT"), std::string::npos);
  EXPECT_NE(out.find("0.950"), std::string::npos);
}

// ---------------------------------------------------- per-fact stream loop

/// Records the model-visible call sequence — Score and ObserveValid, in
/// order. Scores are a deterministic function of the fact, so threshold
/// tuning has something to rank.
class ProbeModel : public AnomalyModel {
 public:
  std::string name() const override { return "probe"; }
  void Fit(const TemporalKnowledgeGraph& train) override { (void)train; }

  TaskScores Score(const Fact& fact) override {
    sequence.push_back("S:" + Key(fact));
    const double x =
        static_cast<double>((fact.subject * 31 + fact.object * 7 +
                             static_cast<uint64_t>(fact.time)) %
                            1000) /
        1000.0;
    return TaskScores{x, 1.0 - x, x};
  }

  void ObserveValid(const Fact& fact) override {
    sequence.push_back("V:" + Key(fact));
  }

  static std::string Key(const Fact& f) {
    return std::to_string(f.subject) + "_" + std::to_string(f.relation) +
           "_" + std::to_string(f.object) + "_" + std::to_string(f.time);
  }

  std::vector<std::string> sequence;
};

GeneratorConfig SmallProtocolWorld() {
  GeneratorConfig cfg;
  cfg.num_entities = 150;
  cfg.num_relations = 18;
  cfg.num_timestamps = 90;
  cfg.num_facts = 3000;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.seed = 13;
  return cfg;
}

/// Appends the call sequence one protocol window must present: every
/// arrival scored once, in order, each valid arrival fed back right after
/// its own Score; then every missing candidate scored, never fed back.
void AppendExpectedWindow(const EvalStream& stream,
                          std::vector<std::string>* out) {
  for (const LabeledFact& lf : stream.arrivals) {
    out->push_back("S:" + ProbeModel::Key(lf.fact));
    if (lf.label == AnomalyType::kValid) {
      out->push_back("V:" + ProbeModel::Key(lf.fact));
    }
  }
  for (const LabeledFact& lf : stream.missing_candidates) {
    out->push_back("S:" + ProbeModel::Key(lf.fact));
  }
}

TEST(ProtocolTest, ScoresEachArrivalOnceThenIngestsEachValidOne) {
  SyntheticGenerator gen(SmallProtocolWorld());
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);

  ProbeModel model;
  ProtocolOptions popts;
  RunProtocol(*graph, split, &model, popts);

  // Rebuild both windows' streams: RunProtocol seeds the validation
  // injector from the test seed as below.
  InjectorConfig val_config = popts.injector;
  val_config.seed = popts.injector.seed * 2654435761u + 1;
  const EvalStream val = AnomalyInjector(val_config).Inject(*graph, split.val);
  const EvalStream test =
      AnomalyInjector(popts.injector).Inject(*graph, split.test);
  std::vector<std::string> expected;
  AppendExpectedWindow(val, &expected);
  AppendExpectedWindow(test, &expected);

  // Both kinds of step occur, and missing candidates include facts
  // labeled valid — which must still get no ObserveValid.
  size_t ingests = 0;
  for (const std::string& step : expected) ingests += step[0] == 'V';
  EXPECT_GT(ingests, 0u);
  EXPECT_LT(ingests, expected.size());
  bool valid_candidate = false;
  for (const LabeledFact& lf : test.missing_candidates) {
    valid_candidate |= lf.label == AnomalyType::kValid;
  }
  EXPECT_TRUE(valid_candidate);
  EXPECT_EQ(model.sequence, expected);
}

TEST(ProtocolTest, MetricsIdenticalAcrossAnoTThreadCounts) {
  SyntheticGenerator gen(SmallProtocolWorld());
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);

  auto run = [&](size_t threads) {
    AnoTOptions options;
    options.detector.category.min_support = 4;
    options.detector.timespan_tolerance = 5;
    options.num_threads = threads;
    AnoTModel model(options);
    return RunProtocol(*graph, split, &model, ProtocolOptions{});
  };
  const EvalResult serial = run(1);
  const EvalResult parallel = run(4);

  // Bitwise equality: the build's thread count must not change a single
  // metric.
  EXPECT_EQ(serial.conceptual.pr_auc, parallel.conceptual.pr_auc);
  EXPECT_EQ(serial.conceptual.precision, parallel.conceptual.precision);
  EXPECT_EQ(serial.conceptual.f_beta, parallel.conceptual.f_beta);
  EXPECT_EQ(serial.time.pr_auc, parallel.time.pr_auc);
  EXPECT_EQ(serial.time.precision, parallel.time.precision);
  EXPECT_EQ(serial.time.f_beta, parallel.time.f_beta);
  EXPECT_EQ(serial.missing.pr_auc, parallel.missing.pr_auc);
  EXPECT_EQ(serial.missing.precision, parallel.missing.precision);
  EXPECT_EQ(serial.missing.f_beta, parallel.missing.f_beta);
  for (const EvalResult& r : {serial, parallel}) {
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.test_seconds, 0.0);
    // Per-arrival latency tail is captured over the same window and is
    // internally consistent: p50 <= p99 <= max.
    EXPECT_GT(r.latency_p50_us, 0.0);
    EXPECT_LE(r.latency_p50_us, r.latency_p99_us);
    EXPECT_LE(r.latency_p99_us, r.latency_max_us);
  }
}

// ------------------------------------------------------ protocol + AnoT

TEST(ProtocolTest, WithoutObserveValidAnoTKeepsItsFittedState) {
  // The "-updater" ablation is observe_valid = false: the protocol never
  // calls ObserveValid, so the fitted TKG and rule graph stay as built
  // through both windows. With it on, the same run grows the graph.
  SyntheticGenerator gen(SmallProtocolWorld());
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 5;
  options.num_threads = 1;
  const AnoT fitted = AnoT::Build(*Subgraph(*graph, split.train), options);

  for (const bool observe_valid : {false, true}) {
    SCOPED_TRACE(observe_valid);
    AnoTModel model(options);
    ProtocolOptions popts;
    popts.observe_valid = observe_valid;
    RunProtocol(*graph, split, &model, popts);
    const AnoT& system = model.system();
    if (observe_valid) {
      EXPECT_GT(system.graph().num_facts(), fitted.graph().num_facts());
    } else {
      EXPECT_EQ(system.graph().num_facts(), fitted.graph().num_facts());
      EXPECT_EQ(system.rules().ToString(), fitted.rules().ToString());
    }
  }
}

TEST(ProtocolTest, AnoTEndToEndProducesSaneMetrics) {
  GeneratorConfig cfg;
  cfg.num_entities = 200;
  cfg.num_relations = 24;
  cfg.num_timestamps = 120;
  cfg.num_facts = 6000;
  cfg.num_categories = 6;
  cfg.num_chain_rules = 5;
  cfg.num_triadic_rules = 2;
  cfg.seed = 41;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);

  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 5;
  AnoTModel model(options);
  ProtocolOptions popts;
  EvalResult result = RunProtocol(*graph, split, &model, popts);

  // Conceptual detection must be strong on planted-schema data.
  EXPECT_GT(result.conceptual.pr_auc, 0.5);
  EXPECT_GT(result.conceptual.precision, 0.4);
  // Missing detection should beat the 50% base rate of its candidate set.
  EXPECT_GT(result.missing.pr_auc, 0.6);
  // Time detection beats its ~0.176 base rate (time errors on recurrent
  // facts are intrinsically hard; see README "Synthetic presets and
  // documented deviations").
  EXPECT_GT(result.time.pr_auc, 0.18);
  EXPECT_GT(result.throughput, 100.0);
  EXPECT_GT(result.fit_seconds, 0.0);
}

}  // namespace
}  // namespace anot
