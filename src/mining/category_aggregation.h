#pragma once

// Internal to src/mining: one aggregation round of CategoryFunction::Build
// (paper §4.3.1), exposed so tests can pin it against the pairwise scan.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/containers.h"

namespace anot {

class ThreadPool;

namespace internal {

/// A relation-token combination and the entities exhibiting it.
struct ComboCandidate {
  std::vector<uint32_t> tokens;   // ascending
  std::vector<uint32_t> members;  // ascending
};

/// Hash of a token set (FNV-1a over the tokens, then the size).
struct TokenSetHash {
  size_t operator()(const std::vector<uint32_t>& tokens) const;
};

/// Token sets already admitted, keyed on the exact set: two distinct sets
/// that hash alike stay distinct.
using TokenSetTable = dense_set<std::vector<uint32_t>, TokenSetHash>;

/// One entity-/relation-based aggregation round over the frozen `combos`.
///
/// For every pair i < j, in ascending (i, j) order: when the member sets
/// overlap by more than `overlap` of the smaller one, the pair
/// proposes (tokens_i ∪ tokens_j, members_i ∩ members_j) if that keeps at
/// least `min_support` members, and the relation test is skipped;
/// otherwise, when the token sets overlap by more than the same fraction,
/// it proposes (tokens_i ∩ tokens_j, members_i ∪ members_j) if the token
/// intersection is non-empty. A proposal is admitted when its token set is
/// not yet in `*seen`, and the set is inserted. Returns the admitted
/// combinations in scan order; the result is identical for every pool
/// size including nullptr.
std::vector<ComboCandidate> AggregateRound(
    const std::vector<ComboCandidate>& combos, TokenSetTable* seen,
    size_t min_support, double overlap, ThreadPool* workers);

}  // namespace internal
}  // namespace anot
