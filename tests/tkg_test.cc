#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "tkg/dictionary.h"
#include "tkg/graph.h"
#include "tkg/loader.h"
#include "tkg/split.h"
#include "tkg/stats.h"
#include "tkg/types.h"
#include "util/random.h"

namespace anot {
namespace {

// ------------------------------------------------------------ Dictionary

TEST(DictionaryTest, AssignsDenseIdsInFirstSeenOrder) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.GetOrAdd("b"), 1u);
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Name(0), "a");
  EXPECT_EQ(dict.Name(1), "b");
}

TEST(DictionaryTest, TryGetMissing) {
  Dictionary dict;
  dict.GetOrAdd("x");
  EXPECT_TRUE(dict.TryGet("x").has_value());
  EXPECT_FALSE(dict.TryGet("y").has_value());
}

TEST(DictionaryTest, HeterogeneousStringViewLookups) {
  Dictionary dict;
  // Interning and probing through every string-ish spelling must agree:
  // the transparent hasher compares string_views, never a temporary
  // std::string.
  const std::string owned = "barack_obama";
  EXPECT_EQ(dict.GetOrAdd(owned), 0u);
  EXPECT_EQ(dict.GetOrAdd(std::string_view("barack_obama")), 0u);
  EXPECT_EQ(dict.GetOrAdd("barack_obama"), 0u);
  ASSERT_TRUE(dict.TryGet(std::string_view("barack_obama")).has_value());
  EXPECT_EQ(*dict.TryGet(std::string_view("barack_obama")), 0u);
  EXPECT_EQ(*dict.TryGet("barack_obama"), 0u);
  // A view into a larger buffer (no NUL terminator at the end of the
  // token) — exactly what a zero-copy TSV scanner would probe with.
  const std::string line = "barack_obama\tpresident_of\tusa";
  EXPECT_EQ(*dict.TryGet(std::string_view(line).substr(0, 12)), 0u);
  EXPECT_FALSE(dict.TryGet(std::string_view(line).substr(0, 6)).has_value());
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict.Name(0), "barack_obama");
}

TEST(DictionaryTest, ReserveKeepsContents) {
  Dictionary dict;
  dict.GetOrAdd("a");
  dict.Reserve(1000);
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.GetOrAdd("b"), 1u);
  EXPECT_EQ(dict.Name(0), "a");
}

// ----------------------------------------------------------------- types

TEST(TypesTest, DirectedRelationTokens) {
  EXPECT_EQ(OutRelationToken(5), 10u);
  EXPECT_EQ(InRelationToken(5), 11u);
  EXPECT_TRUE(IsOutToken(OutRelationToken(7)));
  EXPECT_FALSE(IsOutToken(InRelationToken(7)));
  EXPECT_EQ(TokenRelation(OutRelationToken(9)), 9u);
  EXPECT_EQ(TokenRelation(InRelationToken(9)), 9u);
}

TEST(TypesTest, PairKeyUnique) {
  EXPECT_NE(PairKey(1, 2), PairKey(2, 1));
  EXPECT_EQ(PairKey(3, 4), PairKey(3, 4));
}

TEST(TypesTest, FactEqualityIncludesDuration) {
  Fact a(1, 2, 3, 10);
  Fact b(1, 2, 3, 10, 20);
  EXPECT_FALSE(a == b);
  b.end = 10;
  EXPECT_TRUE(a == b);
}

// ----------------------------------------------------------------- Graph

class GraphFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small political-events toy graph.
    g_.AddFact("obama", "win_election", "usa", 100);
    g_.AddFact("obama", "president_of", "usa", 105);
    g_.AddFact("obama", "make_statement", "usa", 110);
    g_.AddFact("china", "host_visit", "saudi", 102);
    g_.AddFact("china", "host_visit", "iran", 102);
    g_.AddFact("saudi", "sign_agreement", "iran", 106);
  }
  TemporalKnowledgeGraph g_;
};

TEST_F(GraphFixture, UniverseSizes) {
  EXPECT_EQ(g_.num_facts(), 6u);
  EXPECT_EQ(g_.num_entities(), 5u);   // obama, usa, china, saudi, iran
  EXPECT_EQ(g_.num_relations(), 5u);
  EXPECT_EQ(g_.num_timestamps(), 5u); // 100,102,105,106,110
  EXPECT_EQ(g_.min_time(), 100);
  EXPECT_EQ(g_.max_time(), 110);
  EXPECT_FALSE(g_.has_durations());
}

TEST_F(GraphFixture, FactsAtTimestamp) {
  EXPECT_EQ(g_.by_time().at(102).size(), 2u);
  EXPECT_EQ(g_.by_time().at(100).size(), 1u);
  EXPECT_EQ(g_.by_time().count(999), 0u);
}

TEST_F(GraphFixture, PairInteractionSequenceSortedByTime) {
  EntityId obama = *g_.entity_dict().TryGet("obama");
  EntityId usa = *g_.entity_dict().TryGet("usa");
  const auto* seq = g_.FactsForPair(obama, usa);
  ASSERT_NE(seq, nullptr);
  ASSERT_EQ(seq->size(), 3u);
  Timestamp prev = kNoTimestamp;
  for (FactId id : *seq) {
    EXPECT_GE(g_.fact(id).time, prev);
    prev = g_.fact(id).time;
  }
  // Reverse pair never interacted.
  EXPECT_EQ(g_.FactsForPair(usa, obama), nullptr);
}

TEST_F(GraphFixture, SubjectIndex) {
  EntityId china = *g_.entity_dict().TryGet("china");
  EntityId iran = *g_.entity_dict().TryGet("iran");
  ASSERT_NE(g_.FactsBySubject(china), nullptr);
  EXPECT_EQ(g_.FactsBySubject(china)->size(), 2u);
  EXPECT_EQ(g_.FactsBySubject(iran), nullptr);
}

TEST_F(GraphFixture, RelationTokensAreDirectional) {
  EntityId obama = *g_.entity_dict().TryGet("obama");
  EntityId usa = *g_.entity_dict().TryGet("usa");
  RelationId win = *g_.relation_dict().TryGet("win_election");
  EXPECT_TRUE(g_.RelationTokens(obama).count(OutRelationToken(win)));
  EXPECT_FALSE(g_.RelationTokens(obama).count(InRelationToken(win)));
  EXPECT_TRUE(g_.RelationTokens(usa).count(InRelationToken(win)));
}

TEST_F(GraphFixture, MembershipQueries) {
  EntityId obama = *g_.entity_dict().TryGet("obama");
  EntityId usa = *g_.entity_dict().TryGet("usa");
  RelationId win = *g_.relation_dict().TryGet("win_election");
  EXPECT_TRUE(g_.Contains(Fact(obama, win, usa, 100)));
  EXPECT_FALSE(g_.Contains(Fact(obama, win, usa, 101)));
  EXPECT_TRUE(g_.ContainsTriple(obama, win, usa));
  EXPECT_FALSE(g_.ContainsTriple(usa, win, obama));
  EXPECT_EQ(g_.FactsForPair(obama, usa)->size(), 3u);
}

TEST_F(GraphFixture, NamesRoundTrip) {
  EntityId obama = *g_.entity_dict().TryGet("obama");
  EXPECT_EQ(g_.EntityName(obama), "obama");
  // Fallback names for ids beyond the dictionary.
  EXPECT_EQ(g_.EntityName(900), "E900");
  EXPECT_EQ(g_.RelationName(900), "R900");
}

TEST(GraphTest, OutOfOrderInsertKeepsPairSequenceSorted) {
  TemporalKnowledgeGraph g;
  g.AddFact("a", "r", "b", 50);
  g.AddFact("a", "r2", "b", 10);
  g.AddFact("a", "r3", "b", 30);
  EntityId a = *g.entity_dict().TryGet("a");
  EntityId b = *g.entity_dict().TryGet("b");
  const auto* seq = g.FactsForPair(a, b);
  ASSERT_EQ(seq->size(), 3u);
  EXPECT_EQ(g.fact((*seq)[0]).time, 10);
  EXPECT_EQ(g.fact((*seq)[1]).time, 30);
  EXPECT_EQ(g.fact((*seq)[2]).time, 50);
}

TEST(GraphTest, DurationFactsDetected) {
  TemporalKnowledgeGraph g;
  g.AddFact("bill", "married_to", "melinda", 100, 400);
  EXPECT_TRUE(g.has_durations());
  EXPECT_EQ(g.fact(0).end, 400);
}

TEST(GraphTest, DuplicateFactsAllowedAndCounted) {
  TemporalKnowledgeGraph g;
  g.AddFact("a", "r", "b", 1);
  g.AddFact("a", "r", "b", 1);
  EXPECT_EQ(g.num_facts(), 2u);
  EntityId a = *g.entity_dict().TryGet("a");
  EntityId b = *g.entity_dict().TryGet("b");
  RelationId r = *g.relation_dict().TryGet("r");
  EXPECT_TRUE(g.ContainsTriple(a, r, b));
  EXPECT_TRUE(g.Contains(Fact(a, r, b, 1)));
  ASSERT_NE(g.FactsForPair(a, b), nullptr);
  EXPECT_EQ(g.FactsForPair(a, b)->size(), 2u);
}

TEST(GraphTest, MembershipMatchesLinearScan) {
  // Small universes force collisions: repeated facts, facts that share
  // (s, r, o, t) and differ only in `end`, and timestamps inserted out of
  // order, so the pair sequences hold long equal-time runs.
  constexpr uint32_t kEntities = 6;
  constexpr uint32_t kRelations = 3;
  constexpr Timestamp kTimes = 8;
  Rng rng(20240611);
  TemporalKnowledgeGraph g;
  for (int i = 0; i < 400; ++i) {
    if (g.num_facts() > 0 && rng.Bernoulli(0.1)) {
      Fact twin = g.fact(static_cast<FactId>(rng.Uniform(g.num_facts())));
      if (rng.Bernoulli(0.5)) twin.end += 1 + rng.UniformInt(0, 2);
      g.AddFact(twin);
      continue;
    }
    // One draw per statement keeps the sequence independent of the
    // compiler's argument evaluation order.
    const auto s = static_cast<EntityId>(rng.Uniform(kEntities));
    const auto r = static_cast<RelationId>(rng.Uniform(kRelations));
    const auto o = static_cast<EntityId>(rng.Uniform(kEntities));
    const Timestamp t = rng.UniformInt(0, kTimes - 1);
    g.AddFact(Fact(s, r, o, t, t + rng.UniformInt(0, 2)));
  }
  g.CheckInvariants();

  const auto scan_fact = [&g](const Fact& q) {
    for (const Fact& f : g.facts()) {
      if (f == q) return true;
    }
    return false;
  };
  const auto scan_triple = [&g](EntityId s, RelationId r, EntityId o) {
    for (const Fact& f : g.facts()) {
      if (f.subject == s && f.relation == r && f.object == o) return true;
    }
    return false;
  };
  // One id past each universe queries pairs and triples that never occur.
  size_t hits = 0;
  size_t misses = 0;
  for (EntityId s = 0; s <= kEntities; ++s) {
    for (RelationId r = 0; r <= kRelations; ++r) {
      for (EntityId o = 0; o <= kEntities; ++o) {
        const bool want = scan_triple(s, r, o);
        EXPECT_EQ(g.ContainsTriple(s, r, o), want)
            << "(" << s << ", " << r << ", " << o << ")";
        for (Timestamp t = -1; t <= kTimes; ++t) {
          for (Timestamp end = t; end <= t + 3; ++end) {
            const Fact q(s, r, o, t, end);
            const bool want_fact = scan_fact(q);
            EXPECT_EQ(g.Contains(q), want_fact)
                << "(" << s << ", " << r << ", " << o << ", " << t << ", "
                << end << ")";
            ++(want_fact ? hits : misses);
          }
        }
      }
    }
  }
  EXPECT_GT(hits, 100u);
  EXPECT_GT(misses, hits);
}

// Every accessor of `got` agrees with `want`, including the iteration
// order of the pair sequences.
void ExpectSameGraph(const TemporalKnowledgeGraph& got,
                     const TemporalKnowledgeGraph& want) {
  ASSERT_EQ(got.num_facts(), want.num_facts());
  for (FactId id = 0; id < want.num_facts(); ++id) {
    EXPECT_EQ(got.fact(id), want.fact(id)) << "fact " << id;
  }
  EXPECT_EQ(got.num_entities(), want.num_entities());
  EXPECT_EQ(got.num_relations(), want.num_relations());
  EXPECT_EQ(got.num_timestamps(), want.num_timestamps());
  EXPECT_EQ(got.min_time(), want.min_time());
  EXPECT_EQ(got.max_time(), want.max_time());
  EXPECT_EQ(got.has_durations(), want.has_durations());
  EXPECT_EQ(got.by_time(), want.by_time());

  std::vector<std::pair<uint64_t, std::vector<FactId>>> got_pairs(
      got.pair_sequences().begin(), got.pair_sequences().end());
  std::vector<std::pair<uint64_t, std::vector<FactId>>> want_pairs(
      want.pair_sequences().begin(), want.pair_sequences().end());
  EXPECT_EQ(got_pairs, want_pairs);
  for (EntityId s = 0; s <= want.num_entities(); ++s) {
    for (EntityId o = 0; o <= want.num_entities(); ++o) {
      const auto* g_seq = got.FactsForPair(s, o);
      const auto* w_seq = want.FactsForPair(s, o);
      ASSERT_EQ(g_seq == nullptr, w_seq == nullptr);
      if (w_seq != nullptr) {
        EXPECT_EQ(*g_seq, *w_seq);
      }
    }
  }
  for (EntityId e = 0; e <= want.num_entities(); ++e) {
    const auto* g_subj = got.FactsBySubject(e);
    const auto* w_subj = want.FactsBySubject(e);
    ASSERT_EQ(g_subj == nullptr, w_subj == nullptr) << "entity " << e;
    if (w_subj != nullptr) {
      EXPECT_EQ(*g_subj, *w_subj) << "entity " << e;
    }
    EXPECT_TRUE(got.RelationTokens(e) == want.RelationTokens(e))
        << "entity " << e;
  }
  ASSERT_EQ(got.entity_dict().size(), want.entity_dict().size());
  for (uint32_t e = 0; e < want.entity_dict().size(); ++e) {
    EXPECT_EQ(got.entity_dict().Name(e), want.entity_dict().Name(e));
    EXPECT_EQ(*got.entity_dict().TryGet(want.entity_dict().Name(e)), e);
  }
  ASSERT_EQ(got.relation_dict().size(), want.relation_dict().size());
  for (uint32_t r = 0; r < want.relation_dict().size(); ++r) {
    EXPECT_EQ(got.relation_dict().Name(r), want.relation_dict().Name(r));
    EXPECT_EQ(*got.relation_dict().TryGet(want.relation_dict().Name(r)), r);
  }
}

TEST(GraphTest, CopyMatchesReplayAndIsIndependent) {
  Rng rng(7);
  TemporalKnowledgeGraph src;
  for (int i = 0; i < 300; ++i) {
    const std::string s = "e" + std::to_string(rng.Uniform(12));
    const std::string r = "r" + std::to_string(rng.Uniform(4));
    const std::string o = "e" + std::to_string(rng.Uniform(12));
    const Timestamp t = rng.UniformInt(0, 40);  // out-of-order inserts
    const Timestamp end = rng.Bernoulli(0.5) ? t + rng.UniformInt(1, 5) : t;
    src.AddFact(s, r, o, t, end);
  }

  // The reference: dictionaries in id order, then the fact log in id order.
  TemporalKnowledgeGraph replay;
  for (uint32_t e = 0; e < src.entity_dict().size(); ++e) {
    replay.entity_dict().GetOrAdd(src.entity_dict().Name(e));
  }
  for (uint32_t r = 0; r < src.relation_dict().size(); ++r) {
    replay.relation_dict().GetOrAdd(src.relation_dict().Name(r));
  }
  for (const Fact& f : src.facts()) replay.AddFact(f);

  TemporalKnowledgeGraph copy(src);
  copy.CheckInvariants();
  ExpectSameGraph(copy, replay);

  // Appending to the copy, with a new symbol and an out-of-order time,
  // leaves the source untouched.
  copy.AddFact("e3", "r0", "fresh", -5, 90);
  copy.AddFact(copy.fact(0));
  EXPECT_EQ(copy.num_facts(), src.num_facts() + 2);
  EXPECT_FALSE(src.entity_dict().TryGet("fresh").has_value());
  ExpectSameGraph(src, replay);
  src.CheckInvariants();
  copy.CheckInvariants();
}

TEST(GraphTest, ReaddingAFactThroughItsOwnReferenceSurvivesReallocation) {
  // g.AddFact(g.fact(id)) hands AddFact a reference into the fact log that
  // its own push may reallocate. Growing a graph from 3 facts to 1,024
  // that way crosses about nine reallocations; it must equal a graph fed
  // the same facts by value (AddressSanitizer flags any read of the moved
  // log).
  Rng rng(11);
  TemporalKnowledgeGraph g;
  TemporalKnowledgeGraph want;
  for (TemporalKnowledgeGraph* graph : {&g, &want}) {
    graph->AddFact("a", "r0", "b", 5);
    graph->AddFact("c", "r1", "d", -3, 8);
    graph->AddFact("b", "r2", "e", 40);
  }
  while (g.num_facts() < 1024) {
    const FactId id = static_cast<FactId>(rng.Uniform(g.num_facts()));
    const Fact copy = g.fact(id);
    EXPECT_EQ(g.fact(g.AddFact(g.fact(id))), copy);
    want.AddFact(copy);
  }
  ExpectSameGraph(g, want);
  g.CheckInvariants();
}

// ---------------------------------------------------------------- Loader

TEST(LoaderTest, ParseTimeIntegerAndIsoDate) {
  EXPECT_EQ(TkgIo::ParseTime("12345").value(), 12345);
  EXPECT_EQ(TkgIo::ParseTime("-7").value(), -7);
  // 1970-01-01 is day 0; 1970-01-02 is day 1.
  EXPECT_EQ(TkgIo::ParseTime("1970-01-01").value(), 0);
  EXPECT_EQ(TkgIo::ParseTime("1970-01-02").value(), 1);
  // A known anchor: 2000-03-01 is day 11017.
  EXPECT_EQ(TkgIo::ParseTime("2000-03-01").value(), 11017);
  EXPECT_FALSE(TkgIo::ParseTime("not-a-date").ok());
  EXPECT_FALSE(TkgIo::ParseTime("").ok());
  EXPECT_FALSE(TkgIo::ParseTime("2020-13-01").ok());
}

TEST(LoaderTest, ParseTimeRejectsImpossibleCalendarDates) {
  // Regression: DaysFromCivil silently normalizes day-of-month overflow
  // (2023-02-31 -> 2023-03-03), so these used to load "successfully" at
  // a timestamp not present in the source data.
  EXPECT_FALSE(TkgIo::ParseTime("2023-02-31").ok());
  EXPECT_FALSE(TkgIo::ParseTime("2023-02-30").ok());
  EXPECT_FALSE(TkgIo::ParseTime("2021-04-31").ok());  // April has 30 days
  EXPECT_FALSE(TkgIo::ParseTime("2023-02-29").ok());  // not a leap year
  EXPECT_FALSE(TkgIo::ParseTime("1900-02-29").ok());  // century non-leap
  // The valid leap-day neighbors stay accepted.
  EXPECT_TRUE(TkgIo::ParseTime("2024-02-29").ok());   // leap year
  EXPECT_TRUE(TkgIo::ParseTime("2000-02-29").ok());   // 400-year leap
  EXPECT_TRUE(TkgIo::ParseTime("2023-02-28").ok());
  EXPECT_TRUE(TkgIo::ParseTime("2021-04-30").ok());
  EXPECT_TRUE(TkgIo::ParseTime("2023-12-31").ok());
  // Leap-day arithmetic stays exact: 2024-02-29 and 2024-03-01 are
  // adjacent days.
  EXPECT_EQ(TkgIo::ParseTime("2024-03-01").value(),
            TkgIo::ParseTime("2024-02-29").value() + 1);
}

TEST(LoaderTest, RejectsImpossibleDateInTsvRow) {
  auto dir = std::filesystem::temp_directory_path();
  auto path = (dir / "anot_loader_baddate.tsv").string();
  {
    std::ofstream out(path);
    out << "a\tr\tb\t2023-02-31\n";
  }
  auto loaded = TkgIo::LoadTsv(path);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove(path);
}

TEST(LoaderTest, LoadTsvGoldenIdsAndTimestamps) {
  // Golden check that the container overhaul (pre-sizing, dense indexes,
  // transparent interning) left loader semantics untouched: ids are
  // assigned in first-seen order and timestamps parse to the same values.
  auto dir = std::filesystem::temp_directory_path();
  auto path = (dir / "anot_loader_golden.tsv").string();
  {
    std::ofstream out(path);
    out << "# comment line\n"
        << "obama\twin_election\tusa\t1970-01-02\n"
        << "china\thost_visit\tiran\t12\n"
        << "obama\tpresident_of\tusa\t15\n";
  }
  auto loaded = TkgIo::LoadTsv(path);
  ASSERT_TRUE(loaded.ok());
  const TemporalKnowledgeGraph& g = *loaded.value();
  ASSERT_EQ(g.num_facts(), 3u);
  // Entity ids in first-seen order: obama=0, usa=1, china=2, iran=3.
  EXPECT_EQ(*g.entity_dict().TryGet("obama"), 0u);
  EXPECT_EQ(*g.entity_dict().TryGet("usa"), 1u);
  EXPECT_EQ(*g.entity_dict().TryGet("china"), 2u);
  EXPECT_EQ(*g.entity_dict().TryGet("iran"), 3u);
  EXPECT_EQ(*g.relation_dict().TryGet("win_election"), 0u);
  EXPECT_EQ(*g.relation_dict().TryGet("host_visit"), 1u);
  EXPECT_EQ(*g.relation_dict().TryGet("president_of"), 2u);
  EXPECT_EQ(g.fact(0), Fact(0, 0, 1, 1));  // 1970-01-02 == day 1
  EXPECT_EQ(g.fact(1), Fact(2, 1, 3, 12));
  EXPECT_EQ(g.fact(2), Fact(0, 2, 1, 15));
  g.CheckInvariants();
  std::filesystem::remove(path);
}

TEST(LoaderTest, QuadrupleRoundTrip) {
  auto dir = std::filesystem::temp_directory_path();
  auto path = (dir / "anot_loader_quad.tsv").string();
  TemporalKnowledgeGraph g;
  g.AddFact("s1", "r1", "o1", 3);
  g.AddFact("s2", "r1", "o2", 5);
  ASSERT_TRUE(TkgIo::SaveTsv(g, path).ok());

  auto loaded = TkgIo::LoadTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->num_facts(), 2u);
  EXPECT_EQ(loaded.value()->fact(0).time, 3);
  EXPECT_FALSE(loaded.value()->has_durations());
  std::filesystem::remove(path);
}

TEST(LoaderTest, QuintupleRoundTrip) {
  auto dir = std::filesystem::temp_directory_path();
  auto path = (dir / "anot_loader_quint.tsv").string();
  TemporalKnowledgeGraph g;
  g.AddFact("s1", "married_to", "o1", 3, 9);
  ASSERT_TRUE(TkgIo::SaveTsv(g, path).ok());

  auto loaded = TkgIo::LoadTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value()->has_durations());
  EXPECT_EQ(loaded.value()->fact(0).end, 9);
  std::filesystem::remove(path);
}

TEST(LoaderTest, RejectsBadArity) {
  auto dir = std::filesystem::temp_directory_path();
  auto path = (dir / "anot_loader_bad.tsv").string();
  {
    std::ofstream out(path);
    out << "a\tb\tc\n";
  }
  EXPECT_FALSE(TkgIo::LoadTsv(path).ok());
  std::filesystem::remove(path);
}

TEST(LoaderTest, ParseTimeRejectsNonCanonicalFields) {
  // Regression: strtoll accepted whitespace, '+', and trailing junk —
  // encodings a canonical SaveTsv never writes — and silently clamped
  // out-of-range values to LLONG_MAX.
  EXPECT_FALSE(TkgIo::ParseTime(" 12").ok());
  EXPECT_FALSE(TkgIo::ParseTime("12 ").ok());
  EXPECT_FALSE(TkgIo::ParseTime("+5").ok());
  EXPECT_FALSE(TkgIo::ParseTime("1e5").ok());
  EXPECT_FALSE(TkgIo::ParseTime("0x10").ok());
  EXPECT_FALSE(TkgIo::ParseTime("-").ok());
  EXPECT_FALSE(TkgIo::ParseTime("--5").ok());
  EXPECT_FALSE(TkgIo::ParseTime("12\t").ok());
  // Date components are held to the same strictness.
  EXPECT_FALSE(TkgIo::ParseTime("2020- 1-01").ok());
  EXPECT_FALSE(TkgIo::ParseTime("2020-+1-01").ok());
  EXPECT_FALSE(TkgIo::ParseTime(" 2020-01-01").ok());
  EXPECT_FALSE(TkgIo::ParseTime("2020-01-01 ").ok());
  // Leading zeros are canonical in dates ("01") and stay accepted.
  EXPECT_EQ(TkgIo::ParseTime("007").value(), 7);
}

TEST(LoaderTest, ParseTimeOverflowIsAnErrorNotAClamp) {
  // Exact int64 bounds round-trip for ticks...
  EXPECT_EQ(TkgIo::ParseTime("9223372036854775807").value(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(TkgIo::ParseTime("-9223372036854775808").value(),
            std::numeric_limits<int64_t>::min());
  // ...one past them is an error (strtoll used to clamp).
  EXPECT_FALSE(TkgIo::ParseTime("9223372036854775808").ok());
  EXPECT_FALSE(TkgIo::ParseTime("-9223372036854775809").ok());
  EXPECT_FALSE(TkgIo::ParseTime("99999999999999999999999").ok());
  // Years are capped well below the point where the civil-days
  // conversion's era arithmetic could overflow.
  EXPECT_TRUE(TkgIo::ParseTime("1000000000-01-01").ok());
  EXPECT_FALSE(TkgIo::ParseTime("1000000001-01-01").ok());
  EXPECT_FALSE(TkgIo::ParseTime("9223372036854775807-01-01").ok());
}

TEST(LoaderTest, SaveTsvRejectsNamesThatCannotRoundTrip) {
  // Regression: a tab inside a name used to split the row into extra
  // columns and a leading '#' on the subject made the reloaded line a
  // comment — both silently corrupted the round trip. Now rejected with
  // InvalidArgument before anything is written.
  auto dir = std::filesystem::temp_directory_path();
  auto path = (dir / "anot_loader_advname.tsv").string();

  const auto expect_rejected = [&](const TemporalKnowledgeGraph& g) {
    const Status st = TkgIo::SaveTsv(g, path);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(std::filesystem::exists(path)) << st.message();
  };

  TemporalKnowledgeGraph tab_in_entity;
  tab_in_entity.AddFact("a\tb", "r", "c", 1);
  expect_rejected(tab_in_entity);

  TemporalKnowledgeGraph newline_in_object;
  newline_in_object.AddFact("a", "r", "c\nd", 1);
  expect_rejected(newline_in_object);

  TemporalKnowledgeGraph cr_in_relation;
  cr_in_relation.AddFact("a", "r\r", "c", 1);
  expect_rejected(cr_in_relation);

  TemporalKnowledgeGraph comment_subject;
  comment_subject.AddFact("#a", "r", "c", 1);
  expect_rejected(comment_subject);

  // '#' is only special at the start of a line: as an object (or inside a
  // name) it round-trips fine.
  TemporalKnowledgeGraph hash_elsewhere;
  hash_elsewhere.AddFact("a#b", "r#", "#c", 7);
  ASSERT_TRUE(TkgIo::SaveTsv(hash_elsewhere, path).ok());
  auto loaded = TkgIo::LoadTsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value()->num_facts(), 1u);
  EXPECT_EQ(loaded.value()->EntityName(loaded.value()->fact(0).object),
            "#c");
  std::filesystem::remove(path);
}

TEST(LoaderTest, RejectsEndBeforeStart) {
  auto dir = std::filesystem::temp_directory_path();
  auto path = (dir / "anot_loader_rev.tsv").string();
  {
    std::ofstream out(path);
    out << "a\tr\tb\t9\t3\n";
  }
  EXPECT_FALSE(TkgIo::LoadTsv(path).ok());
  std::filesystem::remove(path);
}

// ----------------------------------------------------------------- Split

TEST(SplitTest, PartitionsByDistinctTimestamps) {
  TemporalKnowledgeGraph g;
  // Ten distinct timestamps, two facts each.
  for (Timestamp t = 0; t < 10; ++t) {
    g.AddFact("a" + std::to_string(t), "r", "b", t);
    g.AddFact("c" + std::to_string(t), "r", "d", t);
  }
  TimeSplit split = SplitByTimestamps(g, 0.6, 0.1);
  EXPECT_EQ(split.train.size(), 12u);  // 6 timestamps
  EXPECT_EQ(split.val.size(), 2u);     // 1 timestamp
  EXPECT_EQ(split.test.size(), 6u);    // 3 timestamps
  EXPECT_EQ(split.train_end, 5);
  EXPECT_EQ(split.val_end, 6);
  // Every train fact precedes every test fact in time.
  for (FactId tr : split.train) {
    for (FactId te : split.test) {
      EXPECT_LT(g.fact(tr).time, g.fact(te).time);
    }
  }
}

TEST(SplitTest, SubgraphPreservesSymbolsAndOrder) {
  TemporalKnowledgeGraph g;
  g.AddFact("x", "r", "y", 5);
  g.AddFact("y", "r", "z", 2);
  auto sub = Subgraph(g, {0, 1});
  EXPECT_EQ(sub->num_facts(), 2u);
  // Sorted by time inside the subgraph.
  EXPECT_EQ(sub->fact(0).time, 2);
  EXPECT_EQ(sub->fact(1).time, 5);
  // Same symbol table: "x" has the same id.
  EXPECT_EQ(*sub->entity_dict().TryGet("x"), *g.entity_dict().TryGet("x"));
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, ComputesTable1Columns) {
  TemporalKnowledgeGraph g;
  g.AddFact("a", "r1", "b", 0);
  g.AddFact("a", "r1", "b", 1);
  g.AddFact("c", "r2", "d", 1);
  TkgStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_entities, 4u);
  EXPECT_EQ(stats.num_relations, 2u);
  EXPECT_EQ(stats.num_timestamps, 2u);
  EXPECT_EQ(stats.num_facts, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_facts_per_timestamp, 1.5);
  EXPECT_DOUBLE_EQ(stats.mean_pair_sequence_length, 1.5);
  EXPECT_FALSE(stats.ToString().empty());
}

}  // namespace
}  // namespace anot
