#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

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

// ------------------------------------------------- association gain bound
//
// Candidate generation drops every edge with support * B <= its model
// bits (MinAdmissibleEdgeSupport), which is sound only if associating k
// facts never lowers the negative-error cost by more than k * B.

TEST(AssociationBoundTest, Tier2UniverseIsEntitiesAtLeastTwo) {
  EXPECT_EQ(Tier2Universe(0), 2.0);
  EXPECT_EQ(Tier2Universe(1), 2.0);
  EXPECT_EQ(Tier2Universe(250), 250.0);
  EXPECT_EQ(AssociationGainBoundBits(Tier2Universe(256)), 8.0);
}

TEST(AssociationBoundTest, Tier1UniverseIsTier2SquaredTimesRelations) {
  // |E| clamps to 2 and |R| to 1, so U1 is at least 4.
  EXPECT_EQ(Tier1Universe(0, 0), 4.0);
  EXPECT_EQ(Tier1Universe(1, 3), 12.0);
  EXPECT_EQ(Tier1Universe(1, 1), 4.0);
  EXPECT_EQ(Tier1Universe(250, 0), 62500.0);
  EXPECT_EQ(Tier1Universe(250, 20), 1250000.0);
}

TEST(AssociationBoundTest, OneAssociationCanSaveExactlyB) {
  // A lone unassociated fact at a fresh timestamp saves log2 U2: B is the
  // least per-fact bound, not just an upper one.
  for (double u2 : {2.0, 61.0, 250.0, 12000.0}) {
    const double saving = NegativeErrorBitsAt(1e12, u2, 1, 1, 0) -
                          NegativeErrorBitsAt(1e12, u2, 1, 1, 1);
    EXPECT_NEAR(saving, AssociationGainBoundBits(u2), 1e-9) << u2;
  }
}

TEST(AssociationBoundTest, ExhaustiveSmallUniversesNeverSaveMoreThanKB) {
  // Every (U2, total, mapped, associated) state with U2 <= 12 and up to
  // 16 facts, and every k: small U2 puts most states in the
  // `unassociated + 1` clamp regime.
  size_t checked = 0;
  size_t clamped = 0;
  for (int u2 = 2; u2 <= 12; ++u2) {
    const double per_fact =
        AssociationGainBoundBits(u2) + kAssociationGainSlackBits;
    for (int total = 1; total <= 16; ++total) {
      for (int mapped = 0; mapped <= total; ++mapped) {
        for (int a = 0; a < mapped; ++a) {
          clamped += (mapped - a) + 1 > u2 - a;
          const double before = NegativeErrorBitsAt(1e6, u2, total, mapped, a);
          for (int k = 1; a + k <= mapped; ++k) {
            const double saving =
                before - NegativeErrorBitsAt(1e6, u2, total, mapped, a + k);
            ASSERT_LE(saving, k * per_fact)
                << "U2=" << u2 << " total=" << total << " mapped=" << mapped
                << " associated=" << a << " k=" << k;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000u);
  EXPECT_GT(clamped, 100u);
}

TEST(AssociationBoundTest, RandomLedgerStatesNeverSaveMoreThanKB) {
  // Seeded property test through the builder's own pricing path:
  // CostDelta over several timestamps of a ledger in a random state.
  std::mt19937_64 rng(20240618);
  size_t clamped = 0;
  for (int trial = 0; trial < 500; ++trial) {
    // Every other trial draws a tiny U2, so mapped facts can outnumber
    // the partner universe (the clamp regime).
    const double entities = static_cast<double>(
        trial % 2 == 0 ? 2 + rng() % 15 : 2 + rng() % 20000);
    const double relations = static_cast<double>(1 + rng() % 50);
    const double u2 = Tier2Universe(entities);
    NegativeErrorLedger ledger(Tier1Universe(entities, relations), u2);
    std::vector<NegativeErrorLedger::TimestampDelta> deltas;
    double k = 0;
    const Timestamp num_times = static_cast<Timestamp>(1 + rng() % 12);
    for (Timestamp t = 0; t < num_times; ++t) {
      const uint32_t total = static_cast<uint32_t>(1 + rng() % 300);
      const uint32_t mapped = static_cast<uint32_t>(rng() % (total + 1));
      const uint32_t assoc = static_cast<uint32_t>(rng() % (mapped + 1));
      ledger.SetTimestampTotal(t, total);
      ledger.Apply(t, static_cast<int32_t>(mapped),
                   static_cast<int32_t>(assoc));
      const uint32_t unassociated = mapped - assoc;
      if (unassociated == 0) continue;
      clamped += unassociated + 1.0 > u2 - assoc;
      if (rng() % 4 == 0) continue;  // leave some timestamps untouched
      const int32_t d = static_cast<int32_t>(1 + rng() % unassociated);
      deltas.push_back({t, {0, d}});
      k += d;
    }
    const double saving = -ledger.CostDelta(deltas);
    ASSERT_LE(saving,
              k * (AssociationGainBoundBits(u2) + kAssociationGainSlackBits))
        << "trial " << trial << " U2=" << u2 << " k=" << k;
  }
  EXPECT_GT(clamped, 100u);
}

TEST(AssociationBoundTest, MinAdmissibleSupportIsTheBoundsCrossover) {
  for (double entities : {1.0, 61.0, 250.0, 12000.0}) {
    for (double rules : {0.0, 64.0, 11950.0}) {
      MdlUniverse u;
      u.num_entities = entities;
      u.num_candidate_rules = rules;
      const double per_fact =
          AssociationGainBoundBits(Tier2Universe(entities)) +
          kAssociationGainSlackBits;
      for (bool triadic : {false, true}) {
        const double bits = RuleEdgeBits(u, triadic);
        const size_t k_min = MinAdmissibleEdgeSupport(u, triadic);
        ASSERT_GE(k_min, 1u);
        // Below k_min no saving can pay for the edge; at k_min it may.
        EXPECT_LE(static_cast<double>(k_min - 1) * per_fact, bits);
        EXPECT_GT(static_cast<double>(k_min) * per_fact, bits);
      }
    }
  }
  // The audit-gdelt figures: 61 entities, 11,950 candidate rules.
  MdlUniverse gdelt;
  gdelt.num_entities = 61;
  gdelt.num_candidate_rules = 11950;
  EXPECT_EQ(MinAdmissibleEdgeSupport(gdelt, false), 5u);
  EXPECT_EQ(MinAdmissibleEdgeSupport(gdelt, true), 8u);
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
  NegativeErrorLedger ledger(1e8, Tier2Universe(464));
  EXPECT_DOUBLE_EQ(ledger.total_cost(), 0.0);
  ledger.SetTimestampTotal(5, 10);
  EXPECT_GT(ledger.total_cost(), 0.0);
  const double one_ts = ledger.total_cost();
  ledger.SetTimestampTotal(6, 10);
  EXPECT_NEAR(ledger.total_cost(), 2 * one_ts, 1e-6);
}

TEST(LedgerTest, ApplyReducesCost) {
  NegativeErrorLedger ledger(1e8, Tier2Universe(464));
  ledger.SetTimestampTotal(1, 10);
  const double before = ledger.total_cost();
  ledger.Apply(1, +5, 0);
  const double mapped = ledger.total_cost();
  EXPECT_LT(mapped, before);
  ledger.Apply(1, 0, +5);
  EXPECT_LT(ledger.total_cost(), mapped);
}

TEST(LedgerTest, FullExplanationReachesZero) {
  NegativeErrorLedger ledger(1e8, Tier2Universe(464));
  ledger.SetTimestampTotal(1, 4);
  ledger.Apply(1, +4, +4);
  EXPECT_NEAR(ledger.total_cost(), 0.0, 1e-9);
}

TEST(LedgerTest, CostDeltaMatchesApply) {
  NegativeErrorLedger ledger(1e8, Tier2Universe(464));
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
  NegativeErrorLedger ledger(1e8, Tier2Universe(464));
  ledger.SetTimestampTotal(1, 5);
  ledger.Apply(1, +2, 0);
  std::vector<NegativeErrorLedger::TimestampDelta> over_mapped{
      {1, {+4, 0}}};  // 2 + 4 > total 5
  EXPECT_DEATH((void)ledger.CostDelta(over_mapped), "previewed mapped");
  std::vector<NegativeErrorLedger::TimestampDelta> over_assoc{{1, {+1, +4}}};
  EXPECT_DEATH((void)ledger.CostDelta(over_assoc), "previewed associated");
}

TEST(LedgerTest, CostDeltaIgnoresUnknownTimestamps) {
  NegativeErrorLedger ledger(1e8, Tier2Universe(464));
  ledger.SetTimestampTotal(1, 5);
  std::vector<NegativeErrorLedger::TimestampDelta> deltas{{99, {+3, 0}}};
  EXPECT_DOUBLE_EQ(ledger.CostDelta(deltas), 0.0);
}

TEST(LedgerTest, LargerUniverseCostsMorePerError) {
  NegativeErrorLedger small(1e4, Tier2Universe(22));
  NegativeErrorLedger big(1e10, Tier2Universe(2154));
  small.SetTimestampTotal(0, 5);
  big.SetTimestampTotal(0, 5);
  EXPECT_GT(big.total_cost(), small.total_cost());
}

}  // namespace
}  // namespace anot
