#pragma once

// Summary statistics and the score checksum used by the benchmark program.
// Header-only and free of AnoT types so the self-test can check them alone.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace anotbench {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are at or below it. `p` in (0, 100]; 0 for no samples.
inline double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, samples.size() - 1);
  return samples[index];
}

/// Nearest-rank median (the lower middle sample for even counts).
inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0);
}

/// Number of samples strictly greater than `value` (how many samples a
/// percentile has beyond it).
inline size_t CountAbove(const std::vector<double>& samples, double value) {
  return static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(), [value](double s) { return s > value; }));
}

/// FNV-1a 64 over the IEEE-754 bit patterns of a score sequence: two runs
/// print the same checksum exactly when every score is bit-identical.
class ScoreChecksum {
 public:
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    AddBits(bits);
  }
  void AddBits(uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace anotbench
