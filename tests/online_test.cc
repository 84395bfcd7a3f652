// Equivalence harness for the online serving path: pins "parallel ==
// sequential, bit for bit" as a tested property of AnoT::ScoreBatch, and
// pins the ProcessArrival loop (score, monitor, ingest, auto-refresh) as
// independent of AnoTOptions::num_threads. Every comparison is exact
// (EXPECT_EQ on doubles).
//
// CI runs this suite under ANOT_THREADS=1 and ANOT_THREADS=4; the env
// value is folded into the tested thread counts so the equivalence cases
// always exercise both a serial and a contended schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "datagen/generator.h"
#include "serving_test_util.h"
#include "tkg/split.h"

namespace anot {
namespace {

GeneratorConfig OnlineWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 150;
  cfg.num_relations = 20;
  cfg.num_timestamps = 100;
  cfg.num_facts = 3000;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.num_triadic_rules = 2;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.seed = 1234;
  return cfg;
}

AnoTOptions OnlineOptions(size_t num_threads) {
  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 10;
  options.detector.max_recursion_steps = 2;
  options.num_threads = num_threads;
  return options;
}

/// What the sequential loop left behind, for exact comparison.
struct RunOutcome {
  std::vector<Scores> scores;
  UpdateEffects effects;
  size_t refresh_count = 0;
  size_t num_facts = 0;
  std::string rules;  // serialized rule graph
};

RunOutcome RunArrivals(const TemporalKnowledgeGraph& train,
                       const AnoTOptions& options,
                       const std::vector<Fact>& stream) {
  AnoT system = AnoT::Build(train, options);
  RunOutcome out;
  out.scores.reserve(stream.size());
  for (const Fact& f : stream) {
    out.scores.push_back(system.ProcessArrival(f, &out.effects));
  }
  ValidateAtCommitBoundary(system);
  out.refresh_count = system.refresh_count();
  out.num_facts = system.graph().num_facts();
  out.rules = system.rules().ToString();
  return out;
}

void ExpectOutcomesIdentical(const RunOutcome& ref, const RunOutcome& got,
                             size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(ref.scores.size(), got.scores.size());
  for (size_t i = 0; i < ref.scores.size(); ++i) {
    ExpectScoresIdentical(ref.scores[i], got.scores[i], i);
  }
  EXPECT_EQ(ref.effects.facts_ingested, got.effects.facts_ingested);
  EXPECT_EQ(ref.effects.new_entity_categories,
            got.effects.new_entity_categories);
  EXPECT_EQ(ref.effects.new_rule_nodes, got.effects.new_rule_nodes);
  EXPECT_EQ(ref.effects.new_rule_edges, got.effects.new_rule_edges);
  EXPECT_EQ(ref.effects.timespans_recorded, got.effects.timespans_recorded);
  EXPECT_EQ(ref.refresh_count, got.refresh_count);
  EXPECT_EQ(ref.num_facts, got.num_facts);
  EXPECT_EQ(ref.rules, got.rules);
}

/// Shared expensive fixture: one world, one split, one labeled stream.
class OnlineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticGenerator gen(OnlineWorldConfig());
    graph_ = gen.Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();

    AnomalyInjector injector(InjectorConfig{});
    EvalStream labeled = injector.Inject(*graph_, split_->test);
    stream_ = new std::vector<Fact>();
    for (const LabeledFact& lf : labeled.arrivals) {
      stream_->push_back(lf.fact);
    }
  }
  static void TearDownTestSuite() {
    delete stream_;
    delete train_;
    delete split_;
    delete graph_;
    stream_ = nullptr;
    train_ = nullptr;
    split_ = nullptr;
    graph_ = nullptr;
  }

  static TemporalKnowledgeGraph* graph_;
  static TimeSplit* split_;
  static TemporalKnowledgeGraph* train_;
  static std::vector<Fact>* stream_;
};

TemporalKnowledgeGraph* OnlineFixture::graph_ = nullptr;
TimeSplit* OnlineFixture::split_ = nullptr;
TemporalKnowledgeGraph* OnlineFixture::train_ = nullptr;
std::vector<Fact>* OnlineFixture::stream_ = nullptr;

// ------------------------------------------------------- const ScoreBatch

TEST_F(OnlineFixture, ScoreBatchMatchesScalarScoreAndIsPure) {
  for (size_t threads : ThreadCountsUnderTest()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AnoT system = AnoT::Build(*train_, OnlineOptions(threads));
    const size_t count = std::min<size_t>(200, stream_->size());
    std::vector<Fact> facts(stream_->begin(), stream_->begin() + count);
    const std::vector<Scores> batched = system.ScoreBatch(facts);
    ASSERT_EQ(batched.size(), facts.size());
    for (size_t i = 0; i < facts.size(); ++i) {
      ExpectScoresIdentical(system.Score(facts[i]), batched[i], i);
    }
    // Scoring is const: a second pass is bitwise identical.
    const std::vector<Scores> again = system.ScoreBatch(facts);
    for (size_t i = 0; i < facts.size(); ++i) {
      ExpectScoresIdentical(batched[i], again[i], i);
    }
  }
}

TEST_F(OnlineFixture, EmptyAndSingletonBatches) {
  AnoT system = AnoT::Build(*train_, OnlineOptions(2));
  EXPECT_TRUE(system.ScoreBatch({}).empty());
  const std::vector<Scores> one = system.ScoreBatch({stream_->front()});
  ASSERT_EQ(one.size(), 1u);
  ExpectScoresIdentical(system.Score(stream_->front()), one.front(), 0);
}

// --------------------------------------------- ordered-commit equivalence

TEST_F(OnlineFixture, ArrivalsBitIdenticalAcrossThreadCounts) {
  const AnoTOptions sequential_options = OnlineOptions(1);
  const RunOutcome ref = RunArrivals(*train_, sequential_options, *stream_);
  ASSERT_GT(ref.effects.facts_ingested, 0u)
      << "stream never ingests: the equivalence case is vacuous";
  ASSERT_LT(ref.effects.facts_ingested, stream_->size())
      << "stream always ingests: score-only arrivals are never exercised";

  for (size_t threads : ThreadCountsUnderTest()) {
    ExpectOutcomesIdentical(
        ref, RunArrivals(*train_, OnlineOptions(threads), *stream_), threads);
  }
}

// ------------------------------------------------- refresh mid-stream

/// A prefix of real (ingestable) facts, then a flood of unknown-entity
/// garbage, 80 arrivals per tick, that blows the Eq. 11 budget so the
/// monitor fires mid-stream, then more real facts scored against the
/// rebuilt rule graph. The ingested prefix makes the refreshed graph
/// differ from the offline build. The flood is sized to the budget: this
/// world's L(N_G) is about 4.7k bits, which the flood's unexplained cost
/// passes after about 320 arrivals, so 400 refresh exactly once.
std::vector<Fact> RefreshingStream(const TemporalKnowledgeGraph& graph,
                                   const TimeSplit& split) {
  std::vector<Fact> stream;
  const EntityId base = static_cast<EntityId>(graph.num_entities());
  const Timestamp t0 = graph.max_time() + 1;
  const size_t prefix = std::min<size_t>(60, split.test.size());
  for (size_t i = 0; i < prefix; ++i) {
    stream.push_back(graph.fact(split.test[i]));
  }
  for (int i = 0; i < 400; ++i) {
    stream.push_back(Fact(base + i, 0, base + i + 1, t0 + i / 80));
  }
  for (size_t i = prefix; i < std::min<size_t>(prefix + 40, split.test.size());
       ++i) {
    stream.push_back(graph.fact(split.test[i]));
  }
  return stream;
}

TEST_F(OnlineFixture, AutoRefreshMidStreamBitIdenticalAcrossThreadCounts) {
  AnoTOptions options = OnlineOptions(1);
  options.auto_refresh = true;
  const std::vector<Fact> stream = RefreshingStream(*graph_, *split_);

  const RunOutcome ref = RunArrivals(*train_, options, stream);
  ASSERT_GT(ref.refresh_count, 0u) << "monitor never fired: case is vacuous";

  for (size_t threads : ThreadCountsUnderTest()) {
    AnoTOptions par = options;
    par.num_threads = threads;
    ExpectOutcomesIdentical(ref, RunArrivals(*train_, par, stream), threads);
  }
}

TEST_F(OnlineFixture, AutoRefreshEqualsCallerDrivenRefresh) {
  // auto_refresh is shorthand for the caller's own Eq. 11 check after
  // every arrival: scores, rules and refresh_count agree bit for bit.
  AnoTOptions options = OnlineOptions(1);
  options.auto_refresh = true;
  const std::vector<Fact> stream = RefreshingStream(*graph_, *split_);
  const RunOutcome automatic = RunArrivals(*train_, options, stream);
  ASSERT_GT(automatic.refresh_count, 0u)
      << "monitor never fired: case is vacuous";

  options.auto_refresh = false;
  AnoT system = AnoT::Build(*train_, options);
  RunOutcome manual;
  for (const Fact& f : stream) {
    manual.scores.push_back(system.ProcessArrival(f, &manual.effects));
    if (system.monitor().ShouldRefresh()) system.Refresh();
  }
  manual.refresh_count = system.refresh_count();
  manual.num_facts = system.graph().num_facts();
  manual.rules = system.rules().ToString();
  ExpectOutcomesIdentical(automatic, manual, 1);
}

}  // namespace
}  // namespace anot
