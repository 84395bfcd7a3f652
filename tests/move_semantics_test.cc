// Move-semantics regression suite for the serving objects.
//
// The PR 1 class of bug: an object holds a pointer/reference into a
// *member* of its owner, the owner is returned by value (or stashed in a
// std::optional / vector), and the borrow silently dangles into the
// moved-from temporary. AnoT heap-holds everything its Scorer/Updater
// borrow precisely so those borrows survive moves — this suite pins that
// contract by moving every serving object and demanding *bit-identical*
// scores against an unmoved twin built from the same deterministic world.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/anot.h"
#include "core/scorer.h"
#include "core/updater.h"
#include "datagen/generator.h"
#include "eval/anot_model.h"
#include "eval/protocol.h"
#include "eval/sweep.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/split.h"

namespace anot {
namespace {

GeneratorConfig SmallWorldConfig() {
  GeneratorConfig cfg;
  cfg.num_entities = 120;
  cfg.num_relations = 15;
  cfg.num_timestamps = 80;
  cfg.num_facts = 2500;
  cfg.num_categories = 5;
  cfg.num_chain_rules = 4;
  cfg.num_triadic_rules = 2;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.seed = 99;
  return cfg;
}

AnoTOptions SmallOptions() {
  AnoTOptions options;
  options.detector.category.min_support = 3;
  options.detector.timespan_tolerance = 8;
  options.detector.max_recursion_steps = 2;
  options.num_threads = 1;
  return options;
}

void ExpectSameScores(const Scores& expected, const Scores& actual) {
  EXPECT_EQ(expected.static_score, actual.static_score);
  EXPECT_EQ(expected.temporal_score, actual.temporal_score);
  EXPECT_EQ(expected.static_support, actual.static_support);
  EXPECT_EQ(expected.temporal_support, actual.temporal_support);
  EXPECT_EQ(expected.temporal_conflict, actual.temporal_conflict);
  EXPECT_EQ(expected.out_violations, actual.out_violations);
  EXPECT_EQ(expected.temporal_evaluated, actual.temporal_evaluated);
  EXPECT_EQ(expected.associated, actual.associated);
}

/// Shared expensive fixture: one world, one split, one train subgraph,
/// and the test-window arrival stream every case replays.
class MoveSemanticsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticGenerator gen(SmallWorldConfig());
    graph_ = gen.Generate().release();
    split_ = new TimeSplit(SplitByTimestamps(*graph_, 0.6, 0.1));
    train_ = Subgraph(*graph_, split_->train).release();
    stream_ = new std::vector<Fact>();
    const size_t n = std::min<size_t>(80, split_->test.size());
    for (size_t i = 0; i < n; ++i) {
      stream_->push_back(graph_->fact(split_->test[i]));
    }
    ASSERT_FALSE(stream_->empty());
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

TemporalKnowledgeGraph* MoveSemanticsTest::graph_ = nullptr;
TimeSplit* MoveSemanticsTest::split_ = nullptr;
TemporalKnowledgeGraph* MoveSemanticsTest::train_ = nullptr;
std::vector<Fact>* MoveSemanticsTest::stream_ = nullptr;

// ---------------------------------------------------------------- AnoT

TEST_F(MoveSemanticsTest, MoveConstructedAnoTScoresBitIdentical) {
  // Builds are deterministic, so two builds from the same world are twins.
  AnoT twin = AnoT::Build(*train_, SmallOptions());
  AnoT source = AnoT::Build(*train_, SmallOptions());
  AnoT moved(std::move(source));

  EXPECT_EQ(twin.graph().num_facts(), moved.graph().num_facts());
  EXPECT_EQ(twin.rules().num_rules(), moved.rules().num_rules());
  for (const Fact& fact : *stream_) {
    ExpectSameScores(twin.Score(fact), moved.Score(fact));
  }
}

TEST_F(MoveSemanticsTest, MoveAssignedAnoTServesTheOnlinePathBitIdentical) {
  AnoT twin = AnoT::Build(*train_, SmallOptions());
  // The move-assign target starts as a *different* live system, so the
  // assignment also exercises teardown of the replaced state.
  AnoTOptions other = SmallOptions();
  other.detector.max_recursion_steps = 1;
  AnoT moved = AnoT::Build(*train_, other);
  moved = AnoT::Build(*train_, SmallOptions());

  twin.SetValidityThresholds(0.5, 0.5);
  moved.SetValidityThresholds(0.5, 0.5);
  // The full online step mutates state through the Updater's borrows; a
  // dangling options/graph pointer after the move diverges (or crashes)
  // here rather than in the const scoring path.
  for (const Fact& fact : *stream_) {
    UpdateEffects twin_effects, moved_effects;
    ExpectSameScores(twin.ProcessArrival(fact, &twin_effects),
                     moved.ProcessArrival(fact, &moved_effects));
    EXPECT_EQ(twin_effects.facts_ingested, moved_effects.facts_ingested);
    EXPECT_EQ(twin_effects.new_rule_nodes, moved_effects.new_rule_nodes);
    EXPECT_EQ(twin_effects.timespans_recorded,
              moved_effects.timespans_recorded);
  }
  EXPECT_EQ(twin.graph().num_facts(), moved.graph().num_facts());
  EXPECT_EQ(twin.rules().num_edges(), moved.rules().num_edges());
}

// -------------------------------------------------------------- Scorer

TEST_F(MoveSemanticsTest, MovedScorerMatchesUnmovedTwin) {
  AnoT system = AnoT::Build(*train_, SmallOptions());
  const DetectorOptions& det = system.options().detector;
  const Scorer twin(&system.graph(), &system.categories(), &system.rules(),
                    &det);

  Scorer source(&system.graph(), &system.categories(), &system.rules(),
                &det);
  Scorer moved(std::move(source));
  // Move-assign over a scorer for a different options object too.
  DetectorOptions shallow = det;
  shallow.max_recursion_steps = 1;
  Scorer reassigned(&system.graph(), &system.categories(), &system.rules(),
                    &shallow);
  reassigned = Scorer(&system.graph(), &system.categories(),
                      &system.rules(), &det);

  for (const Fact& fact : *stream_) {
    const Scores expected = twin.Score(fact);
    ExpectSameScores(expected, moved.Score(fact));
    ExpectSameScores(expected, reassigned.Score(fact));
  }
}

// ------------------------------------------------------------- Updater

TEST_F(MoveSemanticsTest, MovedUpdaterIngestsBitIdentical) {
  // Two independent copies of the same built structures, so each updater
  // owns (through its borrows) a private mutable world.
  const AnoTOptions options = SmallOptions();
  CategoryFunction built_categories =
      CategoryFunction::Build(*train_, options.detector.category);
  RuleGraphBuilder builder(*train_, built_categories, options.detector);
  RuleGraphBuilder::Output built = builder.Build();

  TemporalKnowledgeGraph graph_a = *train_;
  CategoryFunction categories_a = built_categories;
  RuleGraph rules_a = *built.rule_graph;
  Updater twin(&graph_a, &categories_a, &rules_a, &options.detector);

  TemporalKnowledgeGraph graph_b = *train_;
  CategoryFunction categories_b = built_categories;
  RuleGraph rules_b = *built.rule_graph;
  Updater source(&graph_b, &categories_b, &rules_b, &options.detector);
  Updater moved(std::move(source));

  for (const Fact& fact : *stream_) {
    const UpdateEffects expected = twin.Ingest(fact);
    const UpdateEffects actual = moved.Ingest(fact);
    EXPECT_EQ(expected.facts_ingested, actual.facts_ingested);
    EXPECT_EQ(expected.new_entity_categories, actual.new_entity_categories);
    EXPECT_EQ(expected.new_rule_nodes, actual.new_rule_nodes);
    EXPECT_EQ(expected.new_rule_edges, actual.new_rule_edges);
    EXPECT_EQ(expected.timespans_recorded, actual.timespans_recorded);
  }
  EXPECT_EQ(graph_a.num_facts(), graph_b.num_facts());
  EXPECT_EQ(rules_a.num_rules(), rules_b.num_rules());
  EXPECT_EQ(rules_a.num_edges(), rules_b.num_edges());
  EXPECT_EQ(twin.pending_rule_count(), moved.pending_rule_count());
}

// ------------------------------------------------- sweep per-cell models

TEST_F(MoveSemanticsTest, MovedFittedModelScoresBitIdentical) {
  // The sweep's cells hold their model behind AnomalyModel; AnoTModel is
  // the one whose guts (an AnoT in a std::optional) actually move.
  AnoTModel twin(SmallOptions());
  twin.Fit(*train_);
  AnoTModel source(SmallOptions());
  source.Fit(*train_);
  AnoTModel moved(std::move(source));

  for (size_t i = 0; i < stream_->size(); ++i) {
    const AnomalyModel::TaskScores expected = twin.Score((*stream_)[i]);
    const AnomalyModel::TaskScores actual = moved.Score((*stream_)[i]);
    EXPECT_EQ(expected.conceptual, actual.conceptual) << i;
    EXPECT_EQ(expected.time, actual.time) << i;
    EXPECT_EQ(expected.missing, actual.missing) << i;
  }
}

TEST_F(MoveSemanticsTest, SweepOverMovedCellsMatchesDirectSweep) {
  auto make_cell = [&](std::string label) {
    SweepCell cell;
    cell.graph = graph_;
    cell.split = split_;
    cell.protocol = ProtocolOptions{};
    cell.dataset = "world";
    cell.label = std::move(label);
    cell.factory = [] {
      return Result<std::unique_ptr<AnomalyModel>>(
          std::unique_ptr<AnomalyModel>(new AnoTModel(SmallOptions())));
    };
    return cell;
  };

  SweepSpec direct;
  direct.num_threads = 1;
  direct.cells.push_back(make_cell("direct"));

  // Shuffle the cell through a move-construct and a move-assign before
  // running it, as vector growth inside a larger grid would.
  SweepCell staged = make_cell("moved");
  SweepCell hop(std::move(staged));
  SweepCell target;
  target = std::move(hop);
  SweepSpec via_moves;
  via_moves.num_threads = 1;
  via_moves.cells.push_back(std::move(target));

  const SweepResult expected = RunSweep(direct);
  const SweepResult actual = RunSweep(via_moves);
  ASSERT_EQ(expected.cells.size(), 1u);
  ASSERT_EQ(actual.cells.size(), 1u);
  ASSERT_TRUE(expected.cells[0].status.ok())
      << expected.cells[0].status.message();
  ASSERT_TRUE(actual.cells[0].status.ok())
      << actual.cells[0].status.message();
  const EvalResult& e = expected.cells[0].result;
  const EvalResult& a = actual.cells[0].result;
  EXPECT_EQ(e.conceptual.pr_auc, a.conceptual.pr_auc);
  EXPECT_EQ(e.time.pr_auc, a.time.pr_auc);
  EXPECT_EQ(e.missing.pr_auc, a.missing.pr_auc);
  EXPECT_EQ(e.conceptual.precision, a.conceptual.precision);
  EXPECT_EQ(e.time.precision, a.time.precision);
  EXPECT_EQ(e.missing.precision, a.missing.precision);
}

}  // namespace
}  // namespace anot
