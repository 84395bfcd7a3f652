// Tests for the invariant validators: every stateful subsystem exposes a
// Status-returning Validate() and an ANOT_VALIDATE CheckInvariants() built
// on it, which must stay silent on any state reachable through the public
// API and fail the moment the structure is corrupted. The death tests
// fabricate corruption (through the RuleGraph's mutable edge access and
// the ledger's test-only back door), pin the failure message, and check
// that Validate() reports the same corruption as a Status, so structural
// damage fails at the mutation that caused it rather than ten goldens
// later.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anomaly/injector.h"
#include "core/anot.h"
#include "core/monitor.h"
#include "core/options.h"
#include "datagen/generator.h"
#include "mdl/encoding.h"
#include "mdl/ledger.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "tkg/split.h"

namespace anot {
namespace {

TEST(TkgValidateTest, PassesOnHandBuiltGraph) {
  TemporalKnowledgeGraph graph;
  graph.AddFact("alice", "visits", "berlin", 3);
  graph.AddFact("bob", "visits", "berlin", 1);
  graph.AddFact("alice", "visits", "berlin", 3);   // identical recurrence
  graph.AddFact("alice", "leads", "acme", 2, 9);   // duration fact
  graph.AddFact("bob", "visits", "paris", 5);
  graph.CheckInvariants();
  EXPECT_EQ(graph.num_facts(), 5u);
}

TEST(RuleGraphValidateTest, PassesOnBuiltRuleGraph) {
  RuleGraph rg;
  const RuleId a = rg.AddRule(AtomicRule{0, 0, 1}, /*static_selected=*/true);
  const RuleId b = rg.AddRule(AtomicRule{1, 1, 2}, /*static_selected=*/true);
  const RuleId c = rg.AddRule(AtomicRule{2, 2, 0}, /*static_selected=*/false);
  RuleEdge chain;
  chain.kind = RuleEdgeKind::kChain;
  chain.head = a;
  chain.tail = b;
  chain.timespans = {4, 1, 2};  // AddEdge sorts
  chain.support = 3;
  rg.AddEdge(chain);
  RuleEdge triadic;
  triadic.kind = RuleEdgeKind::kTriadic;
  triadic.head = a;
  triadic.mid = b;
  triadic.tail = c;
  triadic.timespans = {7};
  triadic.support = 1;
  rg.AddEdge(triadic);
  rg.CheckInvariants();
  EXPECT_EQ(rg.num_edges(), 2u);
}

TEST(LedgerValidateTest, PassesThroughApplyAndSetTotal) {
  NegativeErrorLedger ledger(1000.0, Tier2Universe(10));
  ledger.SetTimestampTotal(1, 10);
  ledger.SetTimestampTotal(2, 6);
  ledger.Apply(1, 4, 2);
  ledger.Apply(2, 3, 0);
  ledger.Apply(1, -1, -1);
  ledger.SetTimestampTotal(1, 2);  // clamps mapped/associated coherently
  ledger.CheckInvariants();
}

TEST(MonitorValidateTest, PassesAcrossBucketLifecycle) {
  BuildReport budget;
  budget.negative_bits = 120.0;
  budget.tier1_universe = 1000.0;
  budget.tier2_universe = 10.0;
  Monitor monitor(budget);
  monitor.CheckInvariants();
  monitor.Observe(1, true, true);
  monitor.Observe(1, false, false);
  monitor.CheckInvariants();  // open bucket
  monitor.Observe(2, true, false);
  monitor.CheckInvariants();  // first bucket closed, second open
  monitor.Flush();
  monitor.CheckInvariants();
}

// The full system, validated at commit boundaries of a live online run:
// after the offline build, every 50 arrivals, after a mid-stream refresh,
// and after an async refresh completes. This exercises the TKG, rule-graph,
// monitor, and updater validators on organically grown state.
TEST(SystemValidateTest, LiveRunStaysCoherentAtCommitBoundaries) {
  GeneratorConfig cfg;
  cfg.num_entities = 80;
  cfg.num_relations = 12;
  cfg.num_timestamps = 60;
  cfg.num_facts = 1200;
  cfg.num_categories = 4;
  cfg.num_chain_rules = 3;
  cfg.num_triadic_rules = 1;
  cfg.chain_follow_prob = 0.7;
  cfg.noise_fraction = 0.03;
  cfg.seed = 77;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  const TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);

  AnomalyInjector injector(InjectorConfig{});
  EvalStream labeled = injector.Inject(*graph, split.test);

  AnoTOptions options;
  options.detector.category.min_support = 4;
  options.detector.timespan_tolerance = 10;
  options.detector.max_recursion_steps = 2;
  options.num_threads = 2;
  AnoT system = AnoT::Build(*train, options);
  system.CheckInvariants();

  size_t arrivals = 0;
  for (const LabeledFact& lf : labeled.arrivals) {
    system.ProcessArrival(lf.fact);
    if (++arrivals % 50 == 0) system.CheckInvariants();
    if (arrivals == 120) {
      system.Refresh();
      system.CheckInvariants();
    }
    if (arrivals == 240) system.RefreshAsync();
  }
  EXPECT_TRUE(system.FinishRefresh());
  system.CheckInvariants();
  EXPECT_GT(system.graph().num_facts(), train->num_facts());
}

#ifdef ANOT_VALIDATE

using RuleGraphValidateDeathTest = ::testing::Test;

TEST(RuleGraphValidateDeathTest, UnsortedTimespansAreFatal) {
  RuleGraph rg;
  const RuleId a = rg.AddRule(AtomicRule{0, 0, 1}, true);
  const RuleId b = rg.AddRule(AtomicRule{1, 1, 2}, true);
  RuleEdge edge;
  edge.kind = RuleEdgeKind::kChain;
  edge.head = a;
  edge.tail = b;
  edge.timespans = {1, 2, 3};
  const RuleEdgeId id = rg.AddEdge(edge);
  rg.CheckInvariants();
  // Bypass AddTimespan's sorted insert — the corruption the validator is
  // there to catch (an updater writing through mutable_edge carelessly).
  rg.mutable_edge(id).timespans = {5, 1};
  EXPECT_FALSE(rg.Validate().ok());
  EXPECT_DEATH(rg.CheckInvariants(), "timespans unsorted");
}

TEST(RuleGraphValidateDeathTest, DanglingEdgeEndpointIsFatal) {
  RuleGraph rg;
  const RuleId a = rg.AddRule(AtomicRule{0, 0, 1}, true);
  const RuleId b = rg.AddRule(AtomicRule{1, 1, 2}, true);
  RuleEdge edge;
  edge.kind = RuleEdgeKind::kChain;
  edge.head = a;
  edge.tail = b;
  edge.timespans = {2};
  const RuleEdgeId id = rg.AddEdge(edge);
  rg.mutable_edge(id).tail = 999;  // no such rule
  EXPECT_FALSE(rg.Validate().ok());
  EXPECT_DEATH(rg.CheckInvariants(), "references unknown rule");
}

TEST(LedgerValidateDeathTest, CounterRangeViolationIsFatal) {
  NegativeErrorLedger ledger(1000.0, Tier2Universe(10));
  ledger.SetTimestampTotal(5, 10);
  ledger.Apply(5, 3, 1);
  ledger.CheckInvariants();
  ledger.TestOnlyCorruptCountersForValidation(5, 10, 11, 1);
  EXPECT_FALSE(ledger.Validate().ok());
  EXPECT_DEATH(ledger.CheckInvariants(), "mapped 11 > total 10");
}

TEST(LedgerValidateDeathTest, StaleCachedCostIsFatal) {
  NegativeErrorLedger ledger(1000.0, Tier2Universe(10));
  ledger.SetTimestampTotal(5, 10);
  ledger.Apply(5, 3, 1);
  // Coherent ranges, but the counters moved without a reprice: the cached
  // per-timestamp cost no longer matches a CostAt recompute.
  ledger.TestOnlyCorruptCountersForValidation(5, 10, 7, 2);
  EXPECT_FALSE(ledger.Validate().ok());
  EXPECT_DEATH(ledger.CheckInvariants(), "cached cost stale");
}

#endif  // ANOT_VALIDATE

}  // namespace
}  // namespace anot
