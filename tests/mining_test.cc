#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "mining/category_aggregation.h"
#include "mining/category_function.h"
#include "mining/prefixspan.h"
#include "tkg/split.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace anot {
namespace {

// -------------------------------------------------------------- PrefixSpan

TEST(PrefixSpanTest, FindsAllFrequentSubsets) {
  // Transactions over items {1,2,3}: {1,2,3} x3, {1,2} x1, {3} x1.
  std::vector<std::vector<uint32_t>> txns{
      {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2}, {3}};
  PrefixSpan::Options opts;
  opts.min_support = 3;
  auto patterns = PrefixSpan::Mine(txns, opts);

  std::set<std::vector<uint32_t>> found;
  for (const auto& p : patterns) found.insert(p.items);
  // Frequent (support >= 3): {1},{2},{3},{1,2},{1,3},{2,3},{1,2,3}.
  EXPECT_EQ(found.size(), 7u);
  EXPECT_TRUE(found.count({1}));
  EXPECT_TRUE(found.count({1, 2}));
  EXPECT_TRUE(found.count({1, 2, 3}));
  EXPECT_TRUE(found.count({2, 3}));
}

TEST(PrefixSpanTest, SupportCountsAndOwnersCorrect) {
  std::vector<std::vector<uint32_t>> txns{{1, 2}, {1}, {2}, {1, 2}};
  PrefixSpan::Options opts;
  opts.min_support = 2;
  auto patterns = PrefixSpan::Mine(txns, opts);
  for (const auto& p : patterns) {
    if (p.items == std::vector<uint32_t>{1, 2}) {
      EXPECT_EQ(p.support(), 2u);
      EXPECT_EQ(p.owners, (std::vector<uint32_t>{0, 3}));
    }
    if (p.items == std::vector<uint32_t>{1}) {
      EXPECT_EQ(p.support(), 3u);
    }
  }
}

TEST(PrefixSpanTest, MinSupportFilters) {
  std::vector<std::vector<uint32_t>> txns{{1, 2}, {1}, {3}};
  PrefixSpan::Options opts;
  opts.min_support = 2;
  auto patterns = PrefixSpan::Mine(txns, opts);
  for (const auto& p : patterns) {
    EXPECT_GE(p.support(), 2u);
    EXPECT_NE(p.items, std::vector<uint32_t>{3});
  }
}

TEST(PrefixSpanTest, MaxLengthBoundsPatternSize) {
  std::vector<std::vector<uint32_t>> txns{
      {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}};
  PrefixSpan::Options opts;
  opts.min_support = 2;
  opts.max_length = 2;
  auto patterns = PrefixSpan::Mine(txns, opts);
  for (const auto& p : patterns) EXPECT_LE(p.items.size(), 2u);
  // 5 singletons + C(5,2)=10 pairs.
  EXPECT_EQ(patterns.size(), 15u);
}

TEST(PrefixSpanTest, MaxPatternsCapStopsMining) {
  std::vector<std::vector<uint32_t>> txns{
      {1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 5, 6, 7, 8}};
  PrefixSpan::Options opts;
  opts.min_support = 2;
  opts.max_patterns = 5;
  auto patterns = PrefixSpan::Mine(txns, opts);
  EXPECT_EQ(patterns.size(), 5u);
}

TEST(PrefixSpanTest, EmptyInput) {
  PrefixSpan::Options opts;
  EXPECT_TRUE(PrefixSpan::Mine({}, opts).empty());
  EXPECT_TRUE(PrefixSpan::Mine({{}, {}}, opts).empty());
}

TEST(PrefixSpanTest, ItemsAreAscendingInEveryPattern) {
  std::vector<std::vector<uint32_t>> txns{
      {2, 5, 9}, {2, 5, 9}, {2, 9}, {5, 9}};
  PrefixSpan::Options opts;
  opts.min_support = 2;
  auto patterns = PrefixSpan::Mine(txns, opts);
  for (const auto& p : patterns) {
    EXPECT_TRUE(std::is_sorted(p.items.begin(), p.items.end()));
  }
}

/// The std::map miner that the dense-bucket miner replaced, kept as the
/// reference for output identity: the same emission order, the same
/// owners and the same cut at max_patterns.
struct LegacyProjection {
  uint32_t transaction;
  uint32_t offset;
};

void LegacyGrow(const std::vector<std::vector<uint32_t>>& transactions,
                const PrefixSpan::Options& options,
                const std::vector<LegacyProjection>& projections,
                std::vector<uint32_t>* prefix,
                std::vector<FrequentItemset>* out) {
  if (out->size() >= options.max_patterns) return;
  if (prefix->size() >= options.max_length) return;
  std::map<uint32_t, std::vector<LegacyProjection>> extensions;
  for (const LegacyProjection& p : projections) {
    const auto& txn = transactions[p.transaction];
    for (uint32_t i = p.offset; i < txn.size(); ++i) {
      extensions[txn[i]].push_back(LegacyProjection{p.transaction, i + 1});
    }
  }
  for (const auto& [item, next] : extensions) {
    if (next.size() < options.min_support) continue;
    if (out->size() >= options.max_patterns) return;
    prefix->push_back(item);
    FrequentItemset pattern;
    pattern.items = *prefix;
    for (const LegacyProjection& p : next) {
      pattern.owners.push_back(p.transaction);
    }
    out->push_back(std::move(pattern));
    LegacyGrow(transactions, options, next, prefix, out);
    prefix->pop_back();
  }
}

std::vector<FrequentItemset> LegacyMine(
    const std::vector<std::vector<uint32_t>>& transactions,
    const PrefixSpan::Options& options) {
  std::vector<LegacyProjection> root;
  for (uint32_t t = 0; t < transactions.size(); ++t) {
    if (!transactions[t].empty()) root.push_back(LegacyProjection{t, 0});
  }
  std::vector<uint32_t> prefix;
  std::vector<FrequentItemset> out;
  LegacyGrow(transactions, options, root, &prefix, &out);
  return out;
}

/// `count` seeded transactions, each a random set of `min_size` to
/// `max_size` items drawn from [0, universe).
std::vector<std::vector<uint32_t>> RandomTransactions(uint64_t seed,
                                                      size_t count,
                                                      size_t universe,
                                                      size_t min_size,
                                                      size_t max_size) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> txns(count);
  for (auto& txn : txns) {
    const size_t size = min_size + rng.Uniform(max_size - min_size + 1);
    for (size_t x : rng.SampleWithoutReplacement(universe, size)) {
      txn.push_back(static_cast<uint32_t>(x));
    }
    std::sort(txn.begin(), txn.end());
  }
  return txns;
}

TEST(PrefixSpanTest, MatchesTheMapMinerItemOwnerAndOrderAtEveryCut) {
  struct Shape {
    // anot-own: points at a string literal in `shapes`.
    const char* name;
    size_t count, universe, min_size, max_size, min_support;
  };
  // Sparse: many short transactions over a wide item range (including
  // empty ones). Dense: about 60 transactions each holding a large share
  // of the items, like GDELT's entities.
  const Shape shapes[] = {{"sparse", 300, 400, 0, 8, 2},
                          {"dense", 61, 60, 10, 35, 4}};
  for (const Shape& shape : shapes) {
    for (uint64_t seed : {3u, 4u}) {
      const auto txns =
          RandomTransactions(seed, shape.count, shape.universe,
                             shape.min_size, shape.max_size);
      PrefixSpan::Options opts;
      opts.min_support = shape.min_support;
      opts.max_patterns = std::numeric_limits<size_t>::max();
      const size_t total = LegacyMine(txns, opts).size();
      ASSERT_GT(total, 100u) << shape.name;
      for (size_t cut : {size_t{0}, size_t{1}, size_t{57}, total / 3,
                         total - 1, total, total + 1,
                         std::numeric_limits<size_t>::max()}) {
        opts.max_patterns = cut;
        const auto want = LegacyMine(txns, opts);
        bool cap_hit = false;
        const auto got = PrefixSpan::Mine(txns, opts, &cap_hit);
        ASSERT_EQ(got.size(), want.size())
            << shape.name << " seed " << seed << " cut " << cut;
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].items, want[i].items)
              << shape.name << " seed " << seed << " cut " << cut
              << " pattern " << i;
          ASSERT_EQ(got[i].owners, want[i].owners)
              << shape.name << " seed " << seed << " cut " << cut
              << " pattern " << i;
        }
        EXPECT_EQ(cap_hit, cut < total)
            << shape.name << " seed " << seed << " cut " << cut;
      }
    }
  }
}

TEST(PrefixSpanTest, CapHitFlagMatchesBruteForceEnumeration) {
  // Brute force: every item set of up to max_length items from a small
  // universe, counted against every transaction. The cap is hit exactly
  // when more sets are frequent than max_patterns lets out.
  constexpr size_t kUniverse = 12;
  for (uint64_t seed : {5u, 6u, 7u}) {
    const auto txns = RandomTransactions(seed, 40, kUniverse, 0, 7);
    for (size_t max_length : {1u, 2u, 3u}) {
      PrefixSpan::Options opts;
      opts.min_support = 3;
      opts.max_length = max_length;
      std::set<std::vector<uint32_t>> frequent;
      for (uint32_t mask = 1; mask < (1u << kUniverse); ++mask) {
        std::vector<uint32_t> items;
        for (uint32_t x = 0; x < kUniverse; ++x) {
          if (mask & (1u << x)) items.push_back(x);
        }
        if (items.size() > max_length) continue;
        size_t support = 0;
        for (const auto& txn : txns) {
          support += std::includes(txn.begin(), txn.end(), items.begin(),
                                   items.end());
        }
        if (support >= opts.min_support) frequent.insert(items);
      }
      const size_t total = frequent.size();
      ASSERT_GT(total, 10u) << "seed " << seed;
      for (size_t cut : {size_t{0}, size_t{1}, size_t{2}, total / 2,
                         total - 1, total, total + 1, 10 * total}) {
        opts.max_patterns = cut;
        bool cap_hit = !(cut < total);  // the opposite of the expectation
        const auto got = PrefixSpan::Mine(txns, opts, &cap_hit);
        EXPECT_EQ(cap_hit, cut < total)
            << "seed " << seed << " max_length " << max_length << " cut "
            << cut << " of " << total;
        EXPECT_EQ(got.size(), std::min(cut, total))
            << "seed " << seed << " max_length " << max_length;
        for (const auto& p : got) {
          EXPECT_TRUE(frequent.count(p.items) > 0) << "seed " << seed;
        }
      }
    }
  }
}

// -------------------------------------------------------- CategoryFunction

/// Builds a graph with two clear latent categories:
///  - "athletes" interact as subjects of r0 (born) and r1 (plays_for)
///  - "directors" interact as subjects of r0 (born) and r2 (directs)
class CategoryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // 8 athletes, 8 directors, shared object entities.
    for (int i = 0; i < 8; ++i) {
      std::string a = "athlete" + std::to_string(i);
      g_.AddFact(a, "born_in", "country", 10 + i);
      g_.AddFact(a, "plays_for", "club", 20 + i);
    }
    for (int i = 0; i < 8; ++i) {
      std::string d = "director" + std::to_string(i);
      g_.AddFact(d, "born_in", "country", 10 + i);
      g_.AddFact(d, "directs", "movie", 30 + i);
    }
    opts_.min_support = 3;
    opts_.max_categories_per_entity = 3;
  }

  TemporalKnowledgeGraph g_;
  CategoryFunctionOptions opts_;
};

TEST_F(CategoryFixture, EveryActiveEntityGetsACategory) {
  auto fn = CategoryFunction::Build(g_, opts_);
  for (EntityId e = 0; e < g_.num_entities(); ++e) {
    EXPECT_FALSE(fn.Categories(e).empty()) << g_.EntityName(e);
    EXPECT_LE(fn.Categories(e).size(), opts_.max_categories_per_entity);
  }
}

TEST_F(CategoryFixture, AthletesAndDirectorsShareCategories) {
  auto fn = CategoryFunction::Build(g_, opts_);
  EntityId a0 = *g_.entity_dict().TryGet("athlete0");
  EntityId a1 = *g_.entity_dict().TryGet("athlete5");
  EntityId d0 = *g_.entity_dict().TryGet("director0");

  // Two athletes share at least one category.
  std::vector<CategoryId> shared;
  const auto& ca0 = fn.Categories(a0);
  const auto& ca1 = fn.Categories(a1);
  std::set_intersection(ca0.begin(), ca0.end(), ca1.begin(), ca1.end(),
                        std::back_inserter(shared));
  EXPECT_FALSE(shared.empty());

  // An athlete and a director must not share the *athlete-specific*
  // category (born+plays_for).
  RelationId plays = *g_.relation_dict().TryGet("plays_for");
  const uint32_t plays_token = OutRelationToken(plays);
  for (CategoryId c : fn.Categories(d0)) {
    const auto& combo = fn.Combination(c);
    EXPECT_FALSE(std::binary_search(combo.begin(), combo.end(), plays_token))
        << "director got an athlete category";
  }
}

TEST_F(CategoryFixture, CombinationTokensMatchEntityBehaviour) {
  auto fn = CategoryFunction::Build(g_, opts_);
  // Every category of every entity must be a subset of the entity's tokens.
  for (EntityId e = 0; e < g_.num_entities(); ++e) {
    const auto& tokens = g_.RelationTokens(e);
    for (CategoryId c : fn.Categories(e)) {
      for (uint32_t t : fn.Combination(c)) {
        EXPECT_TRUE(tokens.count(t) > 0)
            << g_.EntityName(e) << " category " << c
            << " demands a token the entity lacks";
      }
    }
  }
}

TEST_F(CategoryFixture, MembersListsMatchAssignments) {
  auto fn = CategoryFunction::Build(g_, opts_);
  for (EntityId e = 0; e < g_.num_entities(); ++e) {
    for (CategoryId c : fn.Categories(e)) {
      const auto& members = fn.Members(c);
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), e));
    }
  }
}

TEST_F(CategoryFixture, DescribeRendersRelationNames) {
  auto fn = CategoryFunction::Build(g_, opts_);
  EntityId a0 = *g_.entity_dict().TryGet("athlete0");
  ASSERT_FALSE(fn.Categories(a0).empty());
  std::string desc = fn.Describe(fn.Categories(a0).front(), g_);
  EXPECT_FALSE(desc.empty());
  // Mentions at least one of the athlete relations.
  EXPECT_TRUE(desc.find("born_in") != std::string::npos ||
              desc.find("plays_for") != std::string::npos)
      << desc;
}

TEST_F(CategoryFixture, KLimitsCategoriesPerEntity) {
  opts_.max_categories_per_entity = 1;
  auto fn = CategoryFunction::Build(g_, opts_);
  for (EntityId e = 0; e < g_.num_entities(); ++e) {
    EXPECT_LE(fn.Categories(e).size(), 1u);
  }
}

TEST_F(CategoryFixture, UpdateEntityAddsCategoryForNewToken) {
  auto fn = CategoryFunction::Build(g_, opts_);
  // A director starts playing for a club: new out-token plays_for.
  EntityId d0 = *g_.entity_dict().TryGet("director0");
  RelationId plays = *g_.relation_dict().TryGet("plays_for");
  const size_t before = fn.Categories(d0).size();
  g_.AddFact("director0", "plays_for", "club", 99);
  CategoryId added = fn.UpdateEntity(d0, OutRelationToken(plays));
  EXPECT_NE(added, kInvalidId);
  EXPECT_GT(fn.Categories(d0).size(), before);
  // The entity is now a member of the added category.
  const auto& members = fn.Members(added);
  EXPECT_TRUE(std::binary_search(members.begin(), members.end(), d0));
}

TEST_F(CategoryFixture, UpdateEntityUnknownTokenCreatesSingleton) {
  auto fn = CategoryFunction::Build(g_, opts_);
  const size_t cats_before = fn.num_categories();
  EntityId a0 = *g_.entity_dict().TryGet("athlete0");
  g_.AddFact("athlete0", "retires_from", "club", 99);
  RelationId retire = *g_.relation_dict().TryGet("retires_from");
  CategoryId added = fn.UpdateEntity(a0, OutRelationToken(retire));
  EXPECT_NE(added, kInvalidId);
  EXPECT_EQ(fn.num_categories(), cats_before + 1);
  EXPECT_EQ(fn.Combination(added).size(), 1u);
}

TEST_F(CategoryFixture, EntitiesGainingOneUnseenTokenShareOneSingleton) {
  auto fn = CategoryFunction::Build(g_, opts_);
  const size_t cats_before = fn.num_categories();
  const EntityId a0 = *g_.entity_dict().TryGet("athlete0");
  const EntityId d0 = *g_.entity_dict().TryGet("director0");
  g_.AddFact("athlete0", "retires_from", "club", 99);
  g_.AddFact("director0", "retires_from", "club", 100);
  const uint32_t token =
      OutRelationToken(*g_.relation_dict().TryGet("retires_from"));
  const CategoryId first = fn.UpdateEntity(a0, token);
  ASSERT_NE(first, kInvalidId);
  EXPECT_EQ(fn.UpdateEntity(d0, token), first);
  EXPECT_EQ(fn.num_categories(), cats_before + 1);
  EXPECT_EQ(fn.Combination(first), std::vector<uint32_t>{token});
  EXPECT_EQ(fn.Members(first),
            (std::vector<EntityId>{std::min(a0, d0), std::max(a0, d0)}));
  // C(e) stays the exact inverse of the member lists.
  for (CategoryId c = 0; c < fn.num_categories(); ++c) {
    for (EntityId e : fn.Members(c)) {
      const auto& cats = fn.Categories(e);
      EXPECT_TRUE(std::binary_search(cats.begin(), cats.end(), c))
          << "entity " << e << " lacks category " << c;
    }
  }
  for (EntityId e = 0; e < g_.num_entities(); ++e) {
    for (CategoryId c : fn.Categories(e)) {
      const auto& members = fn.Members(c);
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), e))
          << "category " << c << " lacks member " << e;
    }
  }
  fn.CheckInvariants(g_.num_entities());
}

TEST_F(CategoryFixture, UpdateEntityIdempotent) {
  auto fn = CategoryFunction::Build(g_, opts_);
  EntityId d0 = *g_.entity_dict().TryGet("director0");
  RelationId plays = *g_.relation_dict().TryGet("plays_for");
  g_.AddFact("director0", "plays_for", "club", 99);
  CategoryId first = fn.UpdateEntity(d0, OutRelationToken(plays));
  EXPECT_NE(first, kInvalidId);
  // Re-applying the same token is a no-op.
  EXPECT_EQ(fn.UpdateEntity(d0, OutRelationToken(plays)), kInvalidId);
}

TEST_F(CategoryFixture, NewEntityGetsCategoriesViaUpdate) {
  auto fn = CategoryFunction::Build(g_, opts_);
  const EntityId fresh = static_cast<EntityId>(g_.num_entities());
  g_.AddFact("newcomer", "plays_for", "club", 100);
  RelationId plays = *g_.relation_dict().TryGet("plays_for");
  EXPECT_TRUE(fn.Categories(fresh).empty());
  CategoryId added = fn.UpdateEntity(fresh, OutRelationToken(plays));
  EXPECT_NE(added, kInvalidId);
  EXPECT_FALSE(fn.Categories(fresh).empty());
}

/// A 300-entity synthetic world whose build runs several aggregation
/// rounds with plenty of pairwise merges.
std::unique_ptr<TemporalKnowledgeGraph> AggregationWorld() {
  GeneratorConfig cfg;
  cfg.num_entities = 300;
  cfg.num_relations = 24;
  cfg.num_timestamps = 80;
  cfg.num_facts = 6000;
  cfg.num_categories = 6;
  cfg.seed = 91;
  return SyntheticGenerator(cfg).Generate();
}

TEST(CategoryFunctionTest, BuildIdenticalAcrossWorkerCounts) {
  // The token pass and the aggregation rounds shard onto a worker pool;
  // ordered merge replay must keep the built function bit-identical to
  // the serial build (the same contract as candidate costing).
  auto graph = AggregationWorld();

  CategoryFunctionOptions opts;
  opts.min_support = 3;
  // Force several aggregation rounds with plenty of pairwise merges.
  opts.max_aggregation_rounds = 4;

  auto serial = CategoryFunction::Build(*graph, opts, nullptr);
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    auto parallel = CategoryFunction::Build(*graph, opts, &pool);
    ASSERT_EQ(serial.num_categories(), parallel.num_categories())
        << threads << " workers";
    for (CategoryId c = 0; c < serial.num_categories(); ++c) {
      ASSERT_EQ(serial.Combination(c), parallel.Combination(c))
          << "category " << c << " @ " << threads << " workers";
      ASSERT_EQ(serial.Members(c), parallel.Members(c))
          << "category " << c << " @ " << threads << " workers";
    }
    for (EntityId e = 0; e < graph->num_entities(); ++e) {
      ASSERT_EQ(serial.Categories(e), parallel.Categories(e))
          << "entity " << e << " @ " << threads << " workers";
    }
  }
}

/// FNV-1a fingerprint of a built category function: the category count,
/// every combination and member list in category order, and C(e) of every
/// entity.
uint64_t CategoryFingerprint(const CategoryFunction& fn, size_t num_entities) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  };
  auto mix_all = [&mix](const std::vector<uint32_t>& ids) {
    mix(ids.size());
    for (uint32_t id : ids) mix(id);
  };
  mix(fn.num_categories());
  for (CategoryId c = 0; c < fn.num_categories(); ++c) {
    mix_all(fn.Combination(c));
    mix_all(fn.Members(c));
  }
  for (EntityId e = 0; e < num_entities; ++e) mix_all(fn.Categories(e));
  return h;
}

// Golden pins of the whole category function, taken from the std::map
// PrefixSpan, full-sort seed selection and hashed token-set dedup that
// the dense miner, the partial seed sort and the exact token-set table
// replaced: those must change the build's cost, never its output.
TEST(CategoryFunctionTest, MatchesGoldenFingerprintOnTheAggregationWorld) {
  auto graph = AggregationWorld();
  CategoryFunctionOptions opts;
  opts.min_support = 3;
  CategoryMiningStats stats;
  auto fn = CategoryFunction::Build(*graph, opts, nullptr, nullptr, &stats);
  EXPECT_EQ(stats.num_mined_combinations, 4339u);
  EXPECT_FALSE(stats.combination_cap_hit);
  EXPECT_EQ(fn.num_categories(), 33u);
  EXPECT_EQ(CategoryFingerprint(fn, graph->num_entities()),
            0xeaaef96988f875b8ULL);
}

TEST(CategoryFunctionTest, MatchesGoldenFingerprintOnGdeltWhereTheCapBinds) {
  // The audit-gdelt benchmark's offline graph: the GDELT preset at its
  // default bench scale, the first 60% of its timestamps, min_support 4.
  // Its ~61 entities carry dense token sets, so PrefixSpan stops at its
  // 200,000-pattern cap (205,971 are frequent) and only the
  // lexicographically first patterns compete for the aggregation seeds.
  auto graph = SyntheticGenerator(DatasetPresets::Gdelt(
                                      DatasetPresets::DefaultBenchScale("gdelt")))
                   .Generate();
  const TimeSplit split = SplitByTimestamps(*graph, 0.6, 0.1);
  auto train = Subgraph(*graph, split.train);
  CategoryFunctionOptions opts;
  opts.min_support = 4;
  ThreadPool pool(2);
  CategoryMiningStats stats;
  auto fn = CategoryFunction::Build(*train, opts, &pool, nullptr, &stats);
  EXPECT_EQ(stats.num_mined_combinations, 200000u);
  EXPECT_TRUE(stats.combination_cap_hit);
  EXPECT_EQ(fn.num_categories(), 20u);
  EXPECT_EQ(CategoryFingerprint(fn, train->num_entities()),
            0x6aa08ff4e97ed7e6ULL);
}

// ------------------------------------------------------- Aggregation round

using internal::AggregateRound;
using internal::ComboCandidate;
using internal::TokenSetTable;
using TokenSets = std::set<std::vector<uint32_t>>;

std::vector<uint32_t> UnionOf(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<uint32_t> IntersectionOf(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Brute-force reference: the serial pairwise scan that AggregateRound
/// replaced, one merge per pair and the `seen` insertion inline, keyed on
/// the exact token set.
std::vector<ComboCandidate> PairwiseAggregateRound(
    const std::vector<ComboCandidate>& combos, TokenSets* seen,
    size_t min_support, double overlap) {
  std::vector<ComboCandidate> added;
  const size_t n = combos.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const auto& ci = combos[i];
      const auto& cj = combos[j];
      const size_t member_overlap =
          IntersectionOf(ci.members, cj.members).size();
      const size_t member_min = std::min(ci.members.size(), cj.members.size());
      if (member_min > 0 &&
          static_cast<double>(member_overlap) /
                  static_cast<double>(member_min) >
              overlap) {
        ComboCandidate merged;
        merged.tokens = UnionOf(ci.tokens, cj.tokens);
        merged.members = IntersectionOf(ci.members, cj.members);
        if (!merged.members.empty() &&
            merged.members.size() >= min_support &&
            seen->insert(merged.tokens).second) {
          added.push_back(std::move(merged));
        }
        continue;
      }
      const size_t token_overlap =
          IntersectionOf(ci.tokens, cj.tokens).size();
      const size_t token_min = std::min(ci.tokens.size(), cj.tokens.size());
      if (token_min > 0 &&
          static_cast<double>(token_overlap) / static_cast<double>(token_min) >
              overlap) {
        ComboCandidate merged;
        merged.tokens = IntersectionOf(ci.tokens, cj.tokens);
        if (merged.tokens.empty()) continue;
        merged.members = UnionOf(ci.members, cj.members);
        if (seen->insert(merged.tokens).second) {
          added.push_back(std::move(merged));
        }
      }
    }
  }
  return added;
}

std::vector<uint32_t> RandomSet(Rng* rng, size_t universe, size_t size) {
  std::vector<uint32_t> out;
  for (size_t x : rng->SampleWithoutReplacement(universe, size)) {
    out.push_back(static_cast<uint32_t>(x));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Returns `base` with one element swapped for one outside it: same size,
/// overlap |base| - 1 (9 of 10 sits exactly at t = 0.9 and must not
/// qualify, since the test is a strict >).
std::vector<uint32_t> SwapOne(Rng* rng, const std::vector<uint32_t>& base,
                              size_t universe) {
  std::vector<uint32_t> out = base;
  uint32_t fresh;
  do {
    fresh = static_cast<uint32_t>(rng->Uniform(universe));
  } while (std::binary_search(base.begin(), base.end(), fresh));
  out[rng->Uniform(out.size())] = fresh;
  std::sort(out.begin(), out.end());
  return out;
}

/// A seeded combo list over 520 combinations (three shards): random
/// member/token sets over small universes so many pairs overlap, plus
/// planted equal-size pairs overlapping exactly 9 of 10 and fully, on
/// both the member and the token side. Lists may repeat a token set.
std::vector<ComboCandidate> RandomCombos(uint64_t seed) {
  constexpr size_t kEntities = 70;
  constexpr size_t kTokens = 24;
  Rng rng(seed);
  std::vector<ComboCandidate> combos;
  for (int p = 0; p < 40; ++p) {
    ComboCandidate base{RandomSet(&rng, kTokens, 1 + rng.Uniform(3)),
                        RandomSet(&rng, kEntities, 10)};
    combos.push_back({RandomSet(&rng, kTokens, 1 + rng.Uniform(3)),
                      SwapOne(&rng, base.members, kEntities)});
    combos.push_back({RandomSet(&rng, kTokens, 2), base.members});
    ComboCandidate wide{RandomSet(&rng, kTokens, 10),
                        RandomSet(&rng, kEntities, 1 + rng.Uniform(12))};
    combos.push_back({SwapOne(&rng, wide.tokens, kTokens),
                      RandomSet(&rng, kEntities, 1 + rng.Uniform(12))});
    combos.push_back({wide.tokens, RandomSet(&rng, kEntities, 5)});
    combos.push_back(std::move(base));
    combos.push_back(std::move(wide));
  }
  while (combos.size() < 520) {
    combos.push_back({RandomSet(&rng, kTokens, 1 + rng.Uniform(4)),
                      RandomSet(&rng, kEntities, 1 + rng.Uniform(20))});
  }
  rng.Shuffle(&combos);
  return combos;
}

bool SameCombos(const std::vector<ComboCandidate>& a,
                const std::vector<ComboCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tokens != b[i].tokens || a[i].members != b[i].members) {
      return false;
    }
  }
  return true;
}

TEST(AggregateRoundTest, MatchesPairwiseScan) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (uint64_t seed : {1u, 2u}) {
    const std::vector<ComboCandidate> combos = RandomCombos(seed);
    TokenSets initial;
    for (const auto& c : combos) initial.insert(c.tokens);
    for (double t : {0.5, 0.9, 1.0, -0.1}) {
      for (size_t min_support : {1u, 3u}) {
        TokenSets want_seen = initial;
        const auto want =
            PairwiseAggregateRound(combos, &want_seen, min_support, t);
        for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr),
                                    &pool2, &pool8}) {
          TokenSetTable got_seen;
          for (const auto& tokens : initial) got_seen.insert(tokens);
          const auto got =
              AggregateRound(combos, &got_seen, min_support, t, workers);
          const size_t threads =
              workers == nullptr ? 0 : workers->num_threads();
          EXPECT_TRUE(SameCombos(want, got))
              << "seed " << seed << " t " << t << " min_support "
              << min_support << " workers " << threads << ": "
              << want.size() << " vs " << got.size() << " proposals";
          EXPECT_EQ(want_seen, TokenSets(got_seen.begin(), got_seen.end()))
              << "seed " << seed << " t " << t << " workers " << threads;
        }
      }
    }
  }
}

TEST(AggregateRoundTest, OverlapAtThresholdDoesNotQualify) {
  // Equal-size member sets sharing 9 of 10 sit exactly at t = 0.9; the
  // strict test rejects the member merge, and disjoint token sets leave
  // nothing for the relation path either.
  const std::vector<ComboCandidate> combos{
      {{1}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
      {{2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 10}},
  };
  TokenSetTable seen;
  EXPECT_TRUE(AggregateRound(combos, &seen, 3, 0.9, nullptr).empty());
  const auto merged = AggregateRound(combos, &seen, 3, 0.85, nullptr);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].tokens, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(merged[0].members.size(), 9u);
}

TEST(AggregateRoundTest, DistinctTokenSetsThatHashAlikeAreBothAdmitted) {
  // Two 3-token sets with equal TokenSetHash values. Each is proposed by
  // one pair of combinations with equal member sets (the member path),
  // and the two pairs share neither members nor tokens. Dedup on the
  // hash would drop the second proposal.
  const std::vector<uint32_t> a{761, 1078, 32768};
  const std::vector<uint32_t> b{757, 854, 60252};
  ASSERT_EQ(internal::TokenSetHash{}(a), internal::TokenSetHash{}(b));
  const std::vector<ComboCandidate> combos{
      {{a[0]}, {0, 1, 2}},
      {{a[1], a[2]}, {0, 1, 2}},
      {{b[0]}, {3, 4, 5}},
      {{b[1], b[2]}, {3, 4, 5}},
  };
  TokenSetTable seen;
  const auto added = AggregateRound(combos, &seen, 3, 0.9, nullptr);
  ASSERT_EQ(added.size(), 2u);
  EXPECT_EQ(added[0].tokens, a);
  EXPECT_EQ(added[1].tokens, b);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(CategoryFunctionTest, RecoversPlantedCategoriesOnSyntheticData) {
  GeneratorConfig cfg;
  cfg.num_entities = 300;
  cfg.num_relations = 40;
  cfg.num_timestamps = 150;
  cfg.num_facts = 9000;
  cfg.num_categories = 5;
  cfg.secondary_category_prob = 0.0;  // crisp ground truth
  cfg.noise_fraction = 0.02;
  cfg.seed = 31;
  SyntheticGenerator gen(cfg);
  auto graph = gen.Generate();
  const WorldModel& world = gen.world();

  CategoryFunctionOptions opts;
  opts.min_support = 5;
  auto fn = CategoryFunction::Build(*graph, opts);
  EXPECT_GT(fn.num_categories(), 0u);

  // Entities sharing a planted category should share a mined category far
  // more often than entities from different planted categories.
  Rng rng(7);
  auto share = [&](EntityId a, EntityId b) {
    const auto& ca = fn.Categories(a);
    const auto& cb = fn.Categories(b);
    std::vector<CategoryId> inter;
    std::set_intersection(ca.begin(), ca.end(), cb.begin(), cb.end(),
                          std::back_inserter(inter));
    return !inter.empty();
  };
  int same_shared = 0, diff_shared = 0, trials = 300;
  for (int i = 0; i < trials; ++i) {
    EntityId a = static_cast<EntityId>(rng.Uniform(cfg.num_entities));
    EntityId b = static_cast<EntityId>(rng.Uniform(cfg.num_entities));
    if (a == b) continue;
    const bool same_truth = world.entity_primary_category[a] ==
                            world.entity_primary_category[b];
    if (share(a, b)) (same_truth ? same_shared : diff_shared)++;
  }
  EXPECT_GT(same_shared, diff_shared)
      << "mined categories do not track planted categories";
}

}  // namespace
}  // namespace anot
