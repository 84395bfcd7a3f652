#include "util/containers.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace anot {
namespace {

// ------------------------------------------------------------- dense_map

TEST(DenseMapTest, InsertFindEraseBasics) {
  dense_map<int, std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), m.end());

  m[1] = "one";
  m[2] = "two";
  auto [it, inserted] = m.try_emplace(3, "three");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "three");
  EXPECT_EQ(m.size(), 3u);

  // try_emplace on an existing key neither inserts nor overwrites.
  auto [it2, inserted2] = m.try_emplace(2, "TWO");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, "two");

  EXPECT_TRUE(m.contains(1));
  EXPECT_EQ(m.count(1), 1u);
  EXPECT_EQ(m.count(9), 0u);
  EXPECT_EQ(m.at(1), "one");
  EXPECT_THROW(m.at(9), std::out_of_range);

  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(m.erase(2), 0u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_FALSE(m.contains(2));
  EXPECT_EQ(m.at(1), "one");
  EXPECT_EQ(m.at(3), "three");

  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(1));
}

TEST(DenseMapTest, IterationIsInsertionOrder) {
  dense_map<int, int> m;
  const std::vector<int> keys = {42, 7, 19, 3, 100, 55};
  for (size_t i = 0; i < keys.size(); ++i) m[keys[i]] = static_cast<int>(i);
  std::vector<int> seen;
  for (const auto& [k, v] : m) seen.push_back(k);
  EXPECT_EQ(seen, keys);
}

TEST(DenseMapTest, EraseSwapsLastSlotIntoHole) {
  dense_map<int, int> m;
  for (int k = 0; k < 6; ++k) m[k] = k * 10;
  m.erase(1);
  // The last inserted entry (5) moved into the erased entry's position;
  // every other entry keeps its relative order.
  std::vector<int> seen;
  for (const auto& [k, v] : m) seen.push_back(k);
  EXPECT_EQ(seen, (std::vector<int>{0, 5, 2, 3, 4}));
  for (int k : seen) EXPECT_EQ(m.at(k), k * 10);
}

TEST(DenseMapTest, GrowsThroughManyInsertsAndAgreesWithStd) {
  dense_map<uint64_t, uint64_t> m;
  std::unordered_map<uint64_t, uint64_t> ref;
  std::mt19937_64 rng(12345);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng() % 8192;
    if (rng() % 4 == 0) {
      EXPECT_EQ(m.erase(k), ref.erase(k));
    } else {
      const uint64_t v = rng();
      m[k] = v;
      ref[k] = v;
    }
  }
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto it = m.find(k);
    ASSERT_NE(it, m.end()) << "missing key " << k;
    EXPECT_EQ(it->second, v);
  }
}

TEST(DenseMapTest, ReserveAvoidsInvalidationDuringBulkLoad) {
  dense_map<int, int> m;
  m.reserve(1000);
  m[0] = 0;
  const auto* stable = &*m.find(0);
  for (int k = 1; k < 1000; ++k) m[k] = k;
  // No rehash/regrow happened, so the first slot never moved.
  EXPECT_EQ(stable, &*m.find(0));
  EXPECT_EQ(m.size(), 1000u);
}

TEST(DenseMapTest, OperatorBracketDefaultConstructs) {
  dense_map<int, std::vector<int>> m;
  m[7].push_back(1);
  m[7].push_back(2);
  EXPECT_EQ(m.at(7).size(), 2u);
}

// ------------------------------------------------------------- dense_set

TEST(DenseSetTest, InsertCountErase) {
  dense_set<uint64_t> s;
  EXPECT_TRUE(s.insert(5).second);
  EXPECT_FALSE(s.insert(5).second);
  EXPECT_TRUE(s.insert(6).second);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.count(7), 0u);
  EXPECT_EQ(s.erase(5), 1u);
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.contains(6));
}

TEST(DenseSetTest, OrderInsensitiveEquality) {
  dense_set<int> a;
  dense_set<int> b;
  a.insert(1);
  a.insert(2);
  a.insert(3);
  b.insert(3);
  b.insert(1);
  b.insert(2);
  EXPECT_EQ(a, b);
  b.insert(4);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------ string_map

TEST(StringMapTest, TransparentStringViewProbes) {
  string_map<int> m;
  m.try_emplace("alpha", 1);
  m.try_emplace(std::string("beta"), 2);
  // Probes through string_view / char* find entries interned as
  // std::string.
  EXPECT_NE(m.find(std::string_view("alpha")), m.end());
  EXPECT_NE(m.find("beta"), m.end());
  EXPECT_EQ(m.find(std::string_view("alpha"))->second, 1);
  // A non-NUL-terminated view into a larger buffer.
  const std::string buf = "alphabet";
  EXPECT_EQ(m.find(std::string_view(buf).substr(0, 5))->second, 1);
  EXPECT_EQ(m.find(std::string_view(buf)), m.end());
  // operator[] with a string_view inserts a std::string key.
  m[std::string_view("gamma")] = 3;
  EXPECT_EQ(m.at("gamma"), 3);
  EXPECT_EQ(m.size(), 3u);
}

// -------------------------------------------------------------- small_vec

TEST(SmallVecTest, StaysInlineUpToN) {
  small_vec<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.capacity(), 4u);  // still inline
  v.push_back(4);
  EXPECT_GT(v.capacity(), 4u);  // spilled to the heap
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVecTest, InitializerListAndVectorInterop) {
  small_vec<int, 4> v{1, 2, 3};
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ((std::vector<int>{1, 2, 3}), v);
  EXPECT_NE(v, (std::vector<int>{1, 2}));
  v = std::vector<int>{9, 8, 7, 6, 5};
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.front(), 9);
  EXPECT_EQ(v.back(), 5);
  v = {1};
  EXPECT_EQ(v, (std::vector<int>{1}));
}

TEST(SmallVecTest, CopyAndMoveBothStates) {
  small_vec<std::string, 2> inline_v{"a", "b"};
  small_vec<std::string, 2> heap_v{"a", "b", "c", "d"};

  small_vec<std::string, 2> c1 = inline_v;
  small_vec<std::string, 2> c2 = heap_v;
  EXPECT_EQ(c1, inline_v);
  EXPECT_EQ(c2, heap_v);

  small_vec<std::string, 2> m1 = std::move(c1);
  small_vec<std::string, 2> m2 = std::move(c2);
  EXPECT_EQ(m1, inline_v);
  EXPECT_EQ(m2, heap_v);
  EXPECT_TRUE(c1.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(c2.empty());  // NOLINT(bugprone-use-after-move)

  m1 = inline_v;
  m2 = std::move(m1);
  EXPECT_EQ(m2, inline_v);
}

TEST(SmallVecTest, SortedInsertAndRangeErase) {
  small_vec<int, 4> v;
  for (int x : {5, 1, 9, 3, 7}) {
    v.insert(std::upper_bound(v.begin(), v.end(), x), x);
  }
  EXPECT_EQ(v, (std::vector<int>{1, 3, 5, 7, 9}));
  // sort + unique idiom used by Scorer::MapToRules.
  small_vec<int, 4> d{3, 1, 3, 2, 1};
  std::sort(d.begin(), d.end());
  d.erase(std::unique(d.begin(), d.end()), d.end());
  EXPECT_EQ(d, (std::vector<int>{1, 2, 3}));
  d.erase(d.begin(), d.end());
  EXPECT_TRUE(d.empty());
}

TEST(SmallVecTest, PopBackAndClearDestroyElements) {
  small_vec<std::string, 2> v{"x", "y", "z"};
  v.pop_back();
  EXPECT_EQ(v, (std::vector<std::string>{"x", "y"}));
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back("fresh");
  EXPECT_EQ(v.back(), "fresh");
}

}  // namespace
}  // namespace anot
