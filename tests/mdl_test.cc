#include <gtest/gtest.h>

#include <cmath>

#include "mdl/encoding.h"
#include "mdl/ledger.h"

namespace anot {
namespace {

MdlUniverse SmallUniverse() {
  MdlUniverse u;
  u.num_entities = 100;
  u.num_relations = 20;
  u.num_categories = 8;
  u.num_facts = 5000;
  u.num_candidate_rules = 64;
  return u;
}

// ---------------------------------------------------------------- encoding

TEST(EncodingTest, ModelHeaderPositiveAndMonotoneInCategories) {
  MdlUniverse u = SmallUniverse();
  double small = ModelHeaderBits(u);
  EXPECT_GT(small, 0.0);
  u.num_categories = 16;
  EXPECT_GT(ModelHeaderBits(u), small);
}

TEST(EncodingTest, AtomicRuleBitsRareRuleCostsMore) {
  MdlUniverse u = SmallUniverse();
  // Frequent categories and relation -> cheap code.
  double frequent = AtomicRuleBits(u, 1000, 5000, 1000, 5000, 2000);
  double rare = AtomicRuleBits(u, 5, 5000, 5, 5000, 3);
  EXPECT_GT(rare, frequent);
  EXPECT_GT(frequent, 1.0);  // at least direction bit + category id
}

TEST(EncodingTest, RuleEdgeBitsTriadicCostsMoreThanChain) {
  MdlUniverse u = SmallUniverse();
  EXPECT_GT(RuleEdgeBits(u, /*triadic=*/true),
            RuleEdgeBits(u, /*triadic=*/false));
}

TEST(EncodingTest, NegativeErrorZeroWhenFullyExplained) {
  EXPECT_DOUBLE_EQ(NegativeErrorBitsAt(1e9, 1e3, 10, 10, 10), 0.0);
  EXPECT_DOUBLE_EQ(NegativeErrorBitsAt(1e9, 1e3, 0, 0, 0), 0.0);
}

TEST(EncodingTest, NegativeErrorDecreasesWithMapping) {
  const double u1 = 1e9, u2 = 1e3;
  double unmapped = NegativeErrorBitsAt(u1, u2, 10, 0, 0);
  double half_mapped = NegativeErrorBitsAt(u1, u2, 10, 5, 0);
  double mapped = NegativeErrorBitsAt(u1, u2, 10, 10, 0);
  double assoc = NegativeErrorBitsAt(u1, u2, 10, 10, 10);
  EXPECT_GT(unmapped, half_mapped);
  EXPECT_GT(half_mapped, mapped);
  EXPECT_GT(mapped, assoc);
  EXPECT_DOUBLE_EQ(assoc, 0.0);
}

TEST(EncodingTest, MappingSavesMoreThanAssociation) {
  // Tier-1 errors (unmapped) are costlier than tier-2 (unassociated):
  // explaining concepts buys more than explaining order, matching the
  // paper's rules-then-edges selection order.
  const double u1 = 1e9, u2 = 1e3;
  double tier1_saving = NegativeErrorBitsAt(u1, u2, 10, 0, 0) -
                        NegativeErrorBitsAt(u1, u2, 10, 10, 0);
  double tier2_saving = NegativeErrorBitsAt(u1, u2, 10, 10, 0) -
                        NegativeErrorBitsAt(u1, u2, 10, 10, 10);
  EXPECT_GT(tier1_saving, 0.0);
  EXPECT_GT(tier2_saving, 0.0);
  EXPECT_GT(tier1_saving, tier2_saving);
}

// ------------------------------------------------------ EntropyAccumulator

TEST(EntropyTest, UniformSymbolsOneBitEach) {
  EntropyAccumulator acc;
  acc.Add(1);
  acc.Add(2);
  // Two distinct symbols: 2 * H = 2 * 1 bit.
  EXPECT_NEAR(acc.TotalBits(), 2.0, 1e-9);
  acc.Add(1);
  acc.Add(2);
  EXPECT_NEAR(acc.TotalBits(), 4.0, 1e-9);
}

TEST(EntropyTest, SingleSymbolIsFree) {
  EntropyAccumulator acc;
  for (int i = 0; i < 10; ++i) acc.Add(42);
  EXPECT_NEAR(acc.TotalBits(), 0.0, 1e-9);
  EXPECT_EQ(acc.total(), 10u);
}

TEST(EntropyTest, MatchesDirectEntropyComputation) {
  // Distribution {a:3, b:1}: H = 0.811278 bits, total = 4H.
  EntropyAccumulator acc;
  acc.Add(7);
  acc.Add(7);
  acc.Add(7);
  acc.Add(9);
  const double h = -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25));
  EXPECT_NEAR(acc.TotalBits(), 4.0 * h, 1e-9);
}

TEST(EntropyTest, EmptyIsZero) {
  EntropyAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.TotalBits(), 0.0);
}

// ------------------------------------------------------------------ Ledger

TEST(LedgerTest, TotalCostTracksTimestamps) {
  NegativeErrorLedger ledger(1e8);
  EXPECT_DOUBLE_EQ(ledger.total_cost(), 0.0);
  ledger.SetTimestampTotal(5, 10);
  EXPECT_GT(ledger.total_cost(), 0.0);
  const double one_ts = ledger.total_cost();
  ledger.SetTimestampTotal(6, 10);
  EXPECT_NEAR(ledger.total_cost(), 2 * one_ts, 1e-6);
}

TEST(LedgerTest, ApplyReducesCost) {
  NegativeErrorLedger ledger(1e8);
  ledger.SetTimestampTotal(1, 10);
  const double before = ledger.total_cost();
  ledger.Apply(1, +5, 0);
  EXPECT_LT(ledger.total_cost(), before);
  EXPECT_EQ(ledger.mapped_at(1), 5u);
  ledger.Apply(1, 0, +5);
  EXPECT_EQ(ledger.associated_at(1), 5u);
}

TEST(LedgerTest, FullExplanationReachesZero) {
  NegativeErrorLedger ledger(1e8);
  ledger.SetTimestampTotal(1, 4);
  ledger.Apply(1, +4, +4);
  EXPECT_NEAR(ledger.total_cost(), 0.0, 1e-9);
}

TEST(LedgerTest, CostDeltaMatchesApply) {
  NegativeErrorLedger ledger(1e8);
  ledger.SetTimestampTotal(1, 10);
  ledger.SetTimestampTotal(2, 8);
  ledger.Apply(1, +2, 0);

  std::vector<NegativeErrorLedger::TimestampDelta> deltas{{1, {+3, +1}},
                                                          {2, {+4, 0}}};
  const double predicted = ledger.CostDelta(deltas);
  const double before = ledger.total_cost();
  ledger.Apply(1, +3, +1);
  ledger.Apply(2, +4, 0);
  EXPECT_NEAR(ledger.total_cost() - before, predicted, 1e-9);
  EXPECT_LT(predicted, 0.0);
}

TEST(LedgerDeathTest, PreviewEnforcesApplyRangeChecks) {
  // Regression: CostDelta used to clamp out-of-range deltas silently
  // while Apply CHECK-failed on them, so an admission previewed as
  // affordable could crash the moment it was applied. Preview and apply
  // now enforce the same invariants.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  NegativeErrorLedger ledger(1e8);
  ledger.SetTimestampTotal(1, 5);
  ledger.Apply(1, +2, 0);
  std::vector<NegativeErrorLedger::TimestampDelta> over_mapped{
      {1, {+4, 0}}};  // 2 + 4 > total 5
  EXPECT_DEATH((void)ledger.CostDelta(over_mapped), "previewed mapped");
  std::vector<NegativeErrorLedger::TimestampDelta> over_assoc{{1, {+1, +4}}};
  EXPECT_DEATH((void)ledger.CostDelta(over_assoc), "previewed associated");
}

TEST(LedgerTest, CostDeltaIgnoresUnknownTimestamps) {
  NegativeErrorLedger ledger(1e8);
  ledger.SetTimestampTotal(1, 5);
  std::vector<NegativeErrorLedger::TimestampDelta> deltas{{99, {+3, 0}}};
  EXPECT_DOUBLE_EQ(ledger.CostDelta(deltas), 0.0);
}

TEST(LedgerTest, CostAtIsStateless) {
  NegativeErrorLedger ledger(1e8);
  const double a = ledger.CostAt(10, 2, 1);
  ledger.SetTimestampTotal(3, 10);
  ledger.Apply(3, 2, 1);
  EXPECT_DOUBLE_EQ(ledger.CostAt(10, 2, 1), a);
}

TEST(LedgerTest, LargerUniverseCostsMorePerError) {
  NegativeErrorLedger small(1e4);
  NegativeErrorLedger big(1e10);
  small.SetTimestampTotal(0, 5);
  big.SetTimestampTotal(0, 5);
  EXPECT_GT(big.total_cost(), small.total_cost());
}

}  // namespace
}  // namespace anot
