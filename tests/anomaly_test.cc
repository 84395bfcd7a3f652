#include <gtest/gtest.h>

#include <cmath>

#include "anomaly/injector.h"
#include "datagen/generator.h"
#include "tkg/split.h"

namespace anot {
namespace {

class InjectorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig cfg;
    cfg.num_entities = 150;
    cfg.num_relations = 25;
    cfg.num_timestamps = 100;
    cfg.num_facts = 5000;
    cfg.seed = 5;
    SyntheticGenerator gen(cfg);
    graph_ = gen.Generate();
    split_ = SplitByTimestamps(*graph_, 0.6, 0.1);
  }

  std::unique_ptr<TemporalKnowledgeGraph> graph_;
  TimeSplit split_;
};

TEST_F(InjectorFixture, FractionsRespected) {
  InjectorConfig cfg;
  AnomalyInjector injector(cfg);
  EvalStream stream = injector.Inject(*graph_, split_.test);

  const size_t n = split_.test.size();
  size_t conceptual = 0, time_err = 0, valid = 0;
  for (const auto& lf : stream.arrivals) {
    switch (lf.label) {
      case AnomalyType::kConceptual: ++conceptual; break;
      case AnomalyType::kTime: ++time_err; break;
      case AnomalyType::kValid: ++valid; break;
      case AnomalyType::kMissing:
        FAIL() << "missing labels must not appear in arrivals";
        break;
    }
  }
  size_t missing = 0;
  for (const auto& lf : stream.missing_candidates) {
    missing += (lf.label == AnomalyType::kMissing);
  }
  EXPECT_NEAR(static_cast<double>(conceptual) / n, 0.15, 0.01);
  EXPECT_NEAR(static_cast<double>(time_err) / n, 0.15, 0.01);
  EXPECT_NEAR(static_cast<double>(missing) / n, 0.15, 0.01);
  // Arrivals = all window facts minus deleted ones.
  EXPECT_EQ(stream.arrivals.size(), n - missing);
  // One matched negative per missing positive.
  EXPECT_EQ(stream.missing_candidates.size(), 2 * missing);
}

TEST_F(InjectorFixture, ConceptualPerturbationsAreNonFacts) {
  AnomalyInjector injector(InjectorConfig{});
  EvalStream stream = injector.Inject(*graph_, split_.test);
  for (const auto& lf : stream.arrivals) {
    if (lf.label != AnomalyType::kConceptual) continue;
    EXPECT_FALSE(graph_->ContainsTriple(lf.fact.subject, lf.fact.relation,
                                        lf.fact.object))
        << "conceptual anomaly collides with a genuine triple";
    // The perturbation changed relation or object, never subject/time.
    const Fact& orig = graph_->fact(lf.source);
    EXPECT_EQ(lf.fact.subject, orig.subject);
    EXPECT_EQ(lf.fact.time, orig.time);
    EXPECT_TRUE(lf.fact.object != orig.object ||
                lf.fact.relation != orig.relation);
  }
}

TEST_F(InjectorFixture, TimePerturbationsKeepTripleAndShiftFar) {
  AnomalyInjector injector(InjectorConfig{});
  EvalStream stream = injector.Inject(*graph_, split_.test);

  Timestamp wmin = graph_->fact(split_.test.front()).time;
  Timestamp wmax = wmin;
  for (FactId id : split_.test) {
    wmin = std::min(wmin, graph_->fact(id).time);
    wmax = std::max(wmax, graph_->fact(id).time);
  }
  const Timestamp span = wmax - wmin;

  size_t checked = 0;
  for (const auto& lf : stream.arrivals) {
    if (lf.label != AnomalyType::kTime) continue;
    const Fact& orig = graph_->fact(lf.source);
    EXPECT_EQ(lf.fact.subject, orig.subject);
    EXPECT_EQ(lf.fact.relation, orig.relation);
    EXPECT_EQ(lf.fact.object, orig.object);
    EXPECT_NE(lf.fact.time, orig.time);
    // "Large span" between t and t' (allow the far-edge fallback).
    EXPECT_GE(std::llabs(lf.fact.time - orig.time),
              static_cast<Timestamp>(0.25 * span));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(InjectorFixture, MissingPositivesAreRealDeletedFacts) {
  AnomalyInjector injector(InjectorConfig{});
  EvalStream stream = injector.Inject(*graph_, split_.test);
  for (const auto& lf : stream.missing_candidates) {
    if (lf.label == AnomalyType::kMissing) {
      // The positive is a genuine fact of the graph...
      EXPECT_TRUE(graph_->Contains(lf.fact));
      // ...that was removed from the arrival stream.
      for (const auto& arr : stream.arrivals) {
        EXPECT_FALSE(arr.fact == lf.fact && arr.source == lf.source);
      }
    } else {
      // Negatives are corrupted tuples.
      EXPECT_FALSE(graph_->ContainsTriple(lf.fact.subject, lf.fact.relation,
                                          lf.fact.object));
    }
  }
}

TEST_F(InjectorFixture, ArrivalsSortedByTime) {
  AnomalyInjector injector(InjectorConfig{});
  EvalStream stream = injector.Inject(*graph_, split_.test);
  for (size_t i = 1; i < stream.arrivals.size(); ++i) {
    EXPECT_LE(stream.arrivals[i - 1].fact.time, stream.arrivals[i].fact.time);
  }
}

TEST_F(InjectorFixture, DeterministicGivenSeed) {
  AnomalyInjector a(InjectorConfig{});
  AnomalyInjector b(InjectorConfig{});
  EvalStream sa = a.Inject(*graph_, split_.test);
  EvalStream sb = b.Inject(*graph_, split_.test);
  ASSERT_EQ(sa.arrivals.size(), sb.arrivals.size());
  for (size_t i = 0; i < sa.arrivals.size(); ++i) {
    EXPECT_TRUE(sa.arrivals[i].fact == sb.arrivals[i].fact);
    EXPECT_EQ(sa.arrivals[i].label, sb.arrivals[i].label);
  }
}

TEST(InjectorTest, EmptyWindowYieldsEmptyStream) {
  TemporalKnowledgeGraph g;
  g.AddFact("a", "r", "b", 1);
  AnomalyInjector injector(InjectorConfig{});
  EvalStream stream = injector.Inject(g, {});
  EXPECT_TRUE(stream.arrivals.empty());
  EXPECT_TRUE(stream.missing_candidates.empty());
}

TEST(InjectorTest, DurationPerturbationKeepsStartBeforeEnd) {
  GeneratorConfig cfg;
  cfg.num_entities = 100;
  cfg.num_relations = 12;
  cfg.num_timestamps = 80;
  cfg.num_facts = 3000;
  cfg.durations = true;
  cfg.mean_duration = 20.0;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);

  InjectorConfig icfg;
  icfg.perturb_durations = true;
  AnomalyInjector injector(icfg);
  EvalStream stream = injector.Inject(*graph, split.test);
  size_t time_errors = 0;
  for (const auto& lf : stream.arrivals) {
    EXPECT_LE(lf.fact.time, lf.fact.end);
    time_errors += (lf.label == AnomalyType::kTime);
  }
  EXPECT_GT(time_errors, 0u);
}

// FNV-1a over every field of every arrival and missing candidate, in
// stream order. Mixing field by field keeps struct padding out of it.
uint64_t StreamFingerprint(const EvalStream& stream) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto* list : {&stream.arrivals, &stream.missing_candidates}) {
    mix(list->size());
    for (const LabeledFact& lf : *list) {
      mix(lf.fact.subject);
      mix(lf.fact.relation);
      mix(lf.fact.object);
      mix(static_cast<uint64_t>(lf.fact.time));
      mix(static_cast<uint64_t>(lf.fact.end));
      mix(static_cast<uint64_t>(lf.label));
      mix(lf.source);
    }
  }
  return h;
}

// Golden: the injector's membership probes (ContainsTriple for conceptual
// perturbations and negatives, Contains for time perturbations) decide
// which RNG draws are kept, so any change in what they answer shifts the
// whole stream. The constants pin the injected streams bit for bit.
TEST_F(InjectorFixture, InjectedStreamGolden) {
  AnomalyInjector injector(InjectorConfig{});
  const EvalStream stream = injector.Inject(*graph_, split_.test);
  EXPECT_EQ(StreamFingerprint(stream), 0xaba1e53c28e9ecd4ULL);
}

TEST(InjectorTest, InjectedDurationStreamGolden) {
  GeneratorConfig cfg;
  cfg.num_entities = 100;
  cfg.num_relations = 12;
  cfg.num_timestamps = 80;
  cfg.num_facts = 3000;
  cfg.durations = true;
  cfg.mean_duration = 20.0;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  ASSERT_TRUE(graph->has_durations());
  TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);

  InjectorConfig icfg;
  icfg.perturb_durations = true;
  AnomalyInjector injector(icfg);
  const EvalStream stream = injector.Inject(*graph, split.test);
  EXPECT_EQ(StreamFingerprint(stream), 0x8d06785327a6bd8aULL);
}

TEST(InjectorTest, TypeNamesAreStable) {
  EXPECT_STREQ(AnomalyTypeName(AnomalyType::kValid), "valid");
  EXPECT_STREQ(AnomalyTypeName(AnomalyType::kConceptual), "conceptual");
  EXPECT_STREQ(AnomalyTypeName(AnomalyType::kTime), "time");
  EXPECT_STREQ(AnomalyTypeName(AnomalyType::kMissing), "missing");
}

}  // namespace
}  // namespace anot
