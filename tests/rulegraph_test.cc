#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <tuple>
#include <vector>

#include "core/anot.h"
#include "core/scorer.h"
#include "datagen/generator.h"
#include "rulegraph/rule_graph.h"
#include "tkg/split.h"

namespace anot {
namespace {

using RuleTriple = std::tuple<CategoryId, RelationId, CategoryId>;

/// Brute-force reference for the rule index: every node by its
/// (c_s, r, c_o) triple, read off the node table alone.
std::map<RuleTriple, RuleId> RuleTable(const RuleGraph& g) {
  std::map<RuleTriple, RuleId> table;
  for (RuleId id = 0; id < g.num_rules(); ++id) {
    const AtomicRule& r = g.rule(id);
    table.emplace(RuleTriple{r.subject_category, r.relation,
                             r.object_category},
                  id);
  }
  return table;
}

/// The mapping as the scorer once computed it: one probe per (c_s, c_o)
/// pair, then sorted and deduplicated.
std::vector<RuleId> ReferenceMapping(
    const std::map<RuleTriple, RuleId>& table,
    const std::vector<CategoryId>& subject_cats, RelationId relation,
    const std::vector<CategoryId>& object_cats) {
  std::vector<RuleId> mapped;
  for (CategoryId cs : subject_cats) {
    for (CategoryId co : object_cats) {
      auto it = table.find(RuleTriple{cs, relation, co});
      if (it != table.end()) mapped.push_back(it->second);
    }
  }
  std::sort(mapped.begin(), mapped.end());
  mapped.erase(std::unique(mapped.begin(), mapped.end()), mapped.end());
  return mapped;
}

/// Checks FindRule on every node and on absent triples, and AppendRules on
/// random ascending category lists, against the brute-force table.
void ExpectIndexMatchesTable(const RuleGraph& g, std::mt19937_64& rng,
                             uint32_t num_categories, uint32_t num_relations) {
  const std::map<RuleTriple, RuleId> table = RuleTable(g);
  ASSERT_EQ(table.size(), g.num_rules()) << "duplicate rule nodes";
  for (const auto& [triple, id] : table) {
    const auto [cs, r, co] = triple;
    const std::optional<RuleId> found = g.FindRule(AtomicRule{cs, r, co});
    ASSERT_TRUE(found.has_value()) << "rule " << id;
    EXPECT_EQ(*found, id);
  }
  auto random_cats = [&] {
    std::vector<CategoryId> cats;
    const size_t n = rng() % 8;
    for (size_t i = 0; i < n; ++i) cats.push_back(rng() % num_categories);
    std::sort(cats.begin(), cats.end());
    cats.erase(std::unique(cats.begin(), cats.end()), cats.end());
    return cats;
  };
  for (int q = 0; q < 300; ++q) {
    const CategoryId cs = rng() % num_categories;
    const RelationId r = rng() % num_relations;
    const CategoryId co = rng() % num_categories;
    const auto want = table.find(RuleTriple{cs, r, co});
    const std::optional<RuleId> got = g.FindRule(AtomicRule{cs, r, co});
    ASSERT_EQ(got.has_value(), want != table.end());
    if (got.has_value()) {
      EXPECT_EQ(*got, want->second);
    }

    const std::vector<CategoryId> subject_cats = random_cats();
    const std::vector<CategoryId> object_cats = random_cats();
    small_vec<RuleId, 8> mapped;
    for (CategoryId s : subject_cats) g.AppendRules(s, r, object_cats, &mapped);
    std::sort(mapped.begin(), mapped.end());
    EXPECT_EQ(std::vector<RuleId>(mapped.begin(), mapped.end()),
              ReferenceMapping(table, subject_cats, r, object_cats))
        << "query " << q;
  }
}

AtomicRule MakeRule(CategoryId cs, RelationId r, CategoryId co) {
  AtomicRule rule;
  rule.subject_category = cs;
  rule.relation = r;
  rule.object_category = co;
  return rule;
}

TEST(RuleGraphTest, AddAndFindRules) {
  RuleGraph g;
  RuleId a = g.AddRule(MakeRule(0, 1, 2), true);
  RuleId b = g.AddRule(MakeRule(0, 1, 3), true);
  EXPECT_NE(a, b);
  EXPECT_EQ(g.num_rules(), 2u);
  EXPECT_EQ(*g.FindRule(MakeRule(0, 1, 2)), a);
  EXPECT_FALSE(g.FindRule(MakeRule(9, 9, 9)).has_value());
}

TEST(RuleGraphTest, AddRuleIsIdempotentAndUpgradesStaticFlag) {
  RuleGraph g;
  RuleId a = g.AddRule(MakeRule(0, 1, 2), /*static_selected=*/false);
  EXPECT_FALSE(g.static_selected(a));
  EXPECT_EQ(g.num_static_rules(), 0u);
  // Re-adding as static upgrades the flag; id is stable.
  RuleId again = g.AddRule(MakeRule(0, 1, 2), /*static_selected=*/true);
  EXPECT_EQ(a, again);
  EXPECT_TRUE(g.static_selected(a));
  EXPECT_EQ(g.num_static_rules(), 1u);
  EXPECT_EQ(g.num_rules(), 1u);
}

TEST(RuleGraphTest, SupportTracking) {
  RuleGraph g;
  RuleId a = g.AddRule(MakeRule(1, 1, 1), true);
  EXPECT_EQ(g.support(a), 0u);
  g.SetSupport(a, 10);
  g.AddSupport(a, 5);
  EXPECT_EQ(g.support(a), 15u);
}

TEST(RuleGraphTest, ChainEdgeAdjacency) {
  RuleGraph g;
  RuleId h = g.AddRule(MakeRule(0, 0, 1), true);
  RuleId t = g.AddRule(MakeRule(0, 1, 1), true);
  RuleEdge e;
  e.kind = RuleEdgeKind::kChain;
  e.head = h;
  e.tail = t;
  e.timespans = {5, 3, 7};
  e.support = 3;
  RuleEdgeId id = g.AddEdge(e);

  ASSERT_EQ(g.InEdges(t).size(), 1u);
  EXPECT_EQ(g.InEdges(t)[0], id);
  ASSERT_EQ(g.OutEdges(h).size(), 1u);
  EXPECT_TRUE(g.InEdges(h).empty());
  EXPECT_TRUE(g.OutEdges(t).empty());
  // Timespans sorted on insert.
  EXPECT_EQ(g.edge(id).timespans, (std::vector<Timestamp>{3, 5, 7}));
}

TEST(RuleGraphTest, TriadicEdgeAdjacency) {
  RuleGraph g;
  RuleId h = g.AddRule(MakeRule(0, 0, 2), true);
  RuleId m = g.AddRule(MakeRule(1, 1, 2), true);
  RuleId t = g.AddRule(MakeRule(0, 2, 1), true);
  RuleEdge e;
  e.kind = RuleEdgeKind::kTriadic;
  e.head = h;
  e.mid = m;
  e.tail = t;
  RuleEdgeId id = g.AddEdge(e);

  EXPECT_EQ(g.InEdges(t).size(), 1u);
  // Both head and mid see the edge as outgoing.
  EXPECT_EQ(g.OutEdges(h).size(), 1u);
  EXPECT_EQ(g.OutEdges(m).size(), 1u);
  EXPECT_EQ(g.edge(id).kind, RuleEdgeKind::kTriadic);
}

TEST(RuleGraphTest, DuplicateEdgeMergesTimespansAndSupport) {
  RuleGraph g;
  RuleId h = g.AddRule(MakeRule(0, 0, 1), true);
  RuleId t = g.AddRule(MakeRule(0, 1, 1), true);
  RuleEdge e1;
  e1.head = h;
  e1.tail = t;
  e1.timespans = {4};
  e1.support = 1;
  RuleEdge e2 = e1;
  e2.timespans = {2, 9};
  e2.support = 2;
  RuleEdgeId a = g.AddEdge(e1);
  RuleEdgeId b = g.AddEdge(e2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(a).timespans, (std::vector<Timestamp>{2, 4, 9}));
  EXPECT_EQ(g.edge(a).support, 3u);
}

using EdgeTuple = std::tuple<RuleEdgeKind, RuleId, RuleId, RuleId>;

/// Every (kind, head, mid, tail) over `num_rules` rules, chain edges with
/// mid = kInvalidId, looked up in `g` and in the reference `table`.
void ExpectEdgeIndexMatchesTable(const RuleGraph& g,
                                 const std::map<EdgeTuple, RuleEdgeId>& table,
                                 RuleId num_rules) {
  for (RuleId head = 0; head < num_rules; ++head) {
    for (RuleId tail = 0; tail < num_rules; ++tail) {
      for (RuleId mid = 0; mid <= num_rules; ++mid) {
        const RuleEdgeKind kind =
            mid == num_rules ? RuleEdgeKind::kChain : RuleEdgeKind::kTriadic;
        const RuleId m = mid == num_rules ? kInvalidId : mid;
        const auto want = table.find(EdgeTuple{kind, head, m, tail});
        const std::optional<RuleEdgeId> got = g.FindEdge(kind, head, m, tail);
        ASSERT_EQ(got.has_value(), want != table.end())
            << head << " " << m << " " << tail;
        if (got.has_value()) {
          EXPECT_EQ(*got, want->second);
        }
      }
    }
  }
}

TEST(RuleGraphTest, FindEdgeDistinguishesKindAndMid) {
  // Few rules, so most insertions repeat an edge and must merge into it;
  // the index is keyed on the exact (kind, head, mid, tail), so only
  // equal tuples may merge, whatever their hashes.
  constexpr RuleId kRules = 6;
  std::mt19937_64 rng(2207);
  RuleGraph g;
  for (RuleId id = 0; id < kRules; ++id) g.AddRule(MakeRule(id, 0, 1), true);
  std::map<EdgeTuple, RuleEdgeId> table;
  std::map<EdgeTuple, uint32_t> support;
  constexpr int kInsertions = 3000;
  for (int step = 0; step < kInsertions; ++step) {
    RuleEdge e;
    e.kind = rng() % 2 == 0 ? RuleEdgeKind::kChain : RuleEdgeKind::kTriadic;
    e.head = static_cast<RuleId>(rng() % kRules);
    e.tail = static_cast<RuleId>(rng() % kRules);
    if (e.kind == RuleEdgeKind::kTriadic) {
      e.mid = static_cast<RuleId>(rng() % kRules);
    }
    e.support = 1;
    const EdgeTuple key{e.kind, e.head, e.mid, e.tail};
    const RuleEdgeId id = g.AddEdge(e);
    const auto [it, inserted] = table.emplace(key, id);
    EXPECT_EQ(id, it->second) << "edge merged into another tuple";
    if (inserted) {
      EXPECT_EQ(id, g.num_edges() - 1);
    }
    ++support[key];
  }
  // Vacuity guard: merges happened, and not everything merged.
  ASSERT_LT(g.num_edges(), static_cast<size_t>(kInsertions) / 4);
  ASSERT_GT(g.num_edges(), 100u);
  g.CheckInvariants();
  ExpectEdgeIndexMatchesTable(g, table, kRules);
  for (const auto& [key, id] : table) {
    EXPECT_EQ(g.edge(id).support, support.at(key));
  }
  RuleGraph copy = g;
  copy.CheckInvariants();
  ExpectEdgeIndexMatchesTable(copy, table, kRules);
}

TEST(RuleGraphTest, AddTimespanKeepsSorted) {
  RuleGraph g;
  RuleId h = g.AddRule(MakeRule(0, 0, 1), true);
  RuleId t = g.AddRule(MakeRule(0, 1, 1), true);
  RuleEdge e;
  e.head = h;
  e.tail = t;
  RuleEdgeId id = g.AddEdge(e);
  g.AddTimespan(id, 9);
  g.AddTimespan(id, 1);
  g.AddTimespan(id, 5);
  EXPECT_EQ(g.edge(id).timespans, (std::vector<Timestamp>{1, 5, 9}));
}

TEST(RuleGraphTest, RuleIndexMatchesBruteForceUnderOnlineGrowth) {
  constexpr uint32_t kCategories = 40;
  constexpr uint32_t kRelations = 5;
  std::mt19937_64 rng(1907);
  RuleGraph g;
  std::map<RuleTriple, RuleId> added;
  for (int step = 1; step <= 4000; ++step) {
    // Skewed categories grow a few long runs next to many short ones.
    const CategoryId cs = rng() % 4 == 0 ? rng() % 3 : rng() % kCategories;
    const RelationId r = rng() % kRelations;
    const CategoryId co = rng() % kCategories;
    const RuleId id = g.AddRule(MakeRule(cs, r, co), rng() % 2 == 0);
    const auto [it, inserted] = added.emplace(RuleTriple{cs, r, co}, id);
    EXPECT_EQ(id, it->second) << "re-adding a rule changed its id";
    if (inserted) {
      EXPECT_EQ(id, g.num_rules() - 1);
    }
    if (step % 500 == 0) {
      g.CheckInvariants();
      ExpectIndexMatchesTable(g, rng, kCategories, kRelations);
    }
  }
  RuleGraph copy = g;
  copy.CheckInvariants();
  ExpectIndexMatchesTable(copy, rng, kCategories, kRelations);
}

/// The scorer's mapping against the brute-force reference for every fact
/// of a stream, on a detector whose rule graph the updater grew online.
void ExpectMappingMatchesReference(const AnoT& system,
                                   const std::vector<Fact>& facts) {
  const Scorer scorer(&system.graph(), &system.categories(), &system.rules(),
                      &system.options().detector);
  const std::map<RuleTriple, RuleId> table = RuleTable(system.rules());
  for (size_t i = 0; i < facts.size(); ++i) {
    const Fact& f = facts[i];
    const small_vec<RuleId, 8> mapped = scorer.MapToRules(f);
    ASSERT_EQ(std::vector<RuleId>(mapped.begin(), mapped.end()),
              ReferenceMapping(table, system.categories().Categories(f.subject),
                               f.relation,
                               system.categories().Categories(f.object)))
        << "fact " << i;
  }
}

TEST(RuleGraphTest, StreamGrownIndexMatchesBruteForceAcrossRestart) {
  GeneratorConfig cfg;
  cfg.num_entities = 150;
  cfg.num_relations = 20;
  cfg.num_timestamps = 100;
  cfg.num_facts = 4000;
  cfg.num_categories = 6;
  cfg.secondary_category_prob = 0.2;
  cfg.seed = 31;
  SyntheticGenerator gen(cfg);
  const auto world = gen.Generate();
  const TimeSplit split = SplitByTimestamps(*world, 0.5, 0.1);
  const auto train = Subgraph(*world, split.train);
  std::vector<Fact> stream;
  for (FactId id : split.test) stream.push_back(world->fact(id));

  AnoTOptions options;
  options.detector.category.min_support = 3;
  options.detector.timespan_tolerance = 10;
  options.num_threads = 1;
  AnoT system = AnoT::Build(*train, options);
  const size_t built_rules = system.rules().num_rules();
  for (const Fact& f : stream) system.ProcessArrival(f);
  ASSERT_GT(system.rules().num_rules(), built_rules)
      << "the stream must grow the rule graph for this test to bite";
  system.CheckInvariants();
  std::mt19937_64 rng(4242);
  const uint32_t num_categories =
      static_cast<uint32_t>(system.categories().num_categories());
  const uint32_t num_relations =
      static_cast<uint32_t>(system.graph().num_relations());
  ExpectIndexMatchesTable(system.rules(), rng, num_categories, num_relations);
  ExpectMappingMatchesReference(system, stream);

  const std::string path =
      (std::filesystem::temp_directory_path() / "anot_rule_index.bin")
          .string();
  ASSERT_TRUE(system.SaveCheckpoint(path).ok());
  Result<AnoT> restored = AnoT::LoadCheckpoint(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  restored.value().CheckInvariants();
  ExpectIndexMatchesTable(restored.value().rules(), rng, num_categories,
                          num_relations);
  ExpectMappingMatchesReference(restored.value(), stream);
}

TEST(RuleGraphTest, ToStringMentionsCounts) {
  RuleGraph g;
  g.AddRule(MakeRule(0, 1, 2), true);
  std::string s = g.ToString();
  EXPECT_NE(s.find("1 rules"), std::string::npos);
}

}  // namespace
}  // namespace anot
