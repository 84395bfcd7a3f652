// Self-test of the benchmark's summary statistics (stats.h). Exits 0 when
// every check holds; prints each failing check and exits 1 otherwise.

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main() {
  using anotbench::CountAbove;
  using anotbench::Median;
  using anotbench::NearestRank;
  using anotbench::ScoreChecksum;

  // Nearest rank: index ceil(p/100 * n) - 1 of the sorted samples.
  const std::vector<double> five = {50, 10, 40, 20, 30};
  Expect(NearestRank(five, 20) == 10, "p20 of 5 samples is the 1st");
  Expect(NearestRank(five, 21) == 20, "p21 of 5 samples is the 2nd");
  Expect(NearestRank(five, 50) == 30, "p50 of 5 samples is the 3rd");
  Expect(NearestRank(five, 100) == 50, "p100 is the maximum");
  Expect(NearestRank(five, 0.1) == 10, "a tiny p is the minimum");
  Expect(NearestRank({}, 50) == 0, "no samples gives 0");
  Expect(NearestRank({7}, 99) == 7, "one sample is every percentile");

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(NearestRank(hundred, 99) == 99, "p99 of 1..100 is 99");
  Expect(NearestRank(hundred, 99.5) == 100, "p99.5 of 1..100 is 100");
  Expect(CountAbove(hundred, NearestRank(hundred, 99)) == 1,
         "one sample lies beyond p99 of 100");

  Expect(Median({3, 1, 2}) == 2, "median of three is the middle");
  Expect(Median({4, 1, 3, 2}) == 2, "median of four is the lower middle");

  // The checksum sees bit patterns, so 0.0 and -0.0 differ.
  ScoreChecksum a, b, c;
  a.Add(0.0);
  b.Add(-0.0);
  c.Add(0.0);
  Expect(a.value() != b.value(), "checksum separates 0.0 and -0.0");
  Expect(a.value() == c.value(), "checksum is deterministic");
  ScoreChecksum empty;
  Expect(empty.value() == 14695981039346656037ull,
         "empty checksum is the FNV-1a offset basis");
  ScoreChecksum order1, order2;
  order1.Add(1.0);
  order1.Add(2.0);
  order2.Add(2.0);
  order2.Add(1.0);
  Expect(order1.value() != order2.value(), "checksum depends on order");

  if (g_failures == 0) {
    std::printf("anotbench stats self-test: all checks pass\n");
  }
  return g_failures == 0 ? 0 : 1;
}
