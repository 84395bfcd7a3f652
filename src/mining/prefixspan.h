#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace anot {

/// \brief A frequent itemset discovered by PrefixSpan.
struct FrequentItemset {
  /// Items (directed relation tokens), strictly ascending.
  std::vector<uint32_t> items;
  /// Ids of the transactions (entities) whose item set contains `items`.
  std::vector<uint32_t> owners;

  size_t support() const { return owners.size(); }
};

/// \brief PrefixSpan-style frequent itemset miner (paper §4.3.1).
///
/// The paper feeds each entity's interaction relation set R(e) to
/// PrefixSpan to find frequent relation combinations. Because the inputs
/// are *sets* rendered as ascending sequences, prefix-projected growth
/// enumerates exactly the frequent subsets, capped at `max_length` items
/// (the paper uses up to 3 to balance cost and category granularity).
class PrefixSpan {
 public:
  struct Options {
    /// Minimum number of transactions containing the pattern.
    size_t min_support = 3;
    /// Maximum items per pattern (paper: 3).
    size_t max_length = 3;
    /// Safety cap on emitted patterns; mining stops once reached.
    size_t max_patterns = 200000;
  };

  /// Mines all frequent itemsets from `transactions`. Each transaction
  /// must be sorted ascending with unique items (asserted in debug mode).
  /// Output is in depth-first lexicographic order, deterministic; each
  /// pattern's owners are ascending. `cap_hit` (optional) is set to
  /// whether `max_patterns` left at least one frequent itemset unemitted.
  static std::vector<FrequentItemset> Mine(
      const std::vector<std::vector<uint32_t>>& transactions,
      const Options& options, bool* cap_hit = nullptr);
};

}  // namespace anot
