#include "mining/category_aggregation.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/thread_pool.h"

namespace anot {
namespace internal {

namespace {

/// Writes a ∪ b into `out`; a reused buffer stops allocating once grown.
void UnionInto(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b,
               std::vector<uint32_t>* out) {
  out->clear();
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(*out));
}

/// Writes a ∩ b into `out`.
void IntersectionInto(const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b,
                      std::vector<uint32_t>* out) {
  out->clear();
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(*out));
}

/// Inverted index over one id field of the combos: postings[x] lists, in
/// ascending order, the indices of the combos whose field contains id x.
/// Ids are dense (entity ids, relation tokens), so a vector indexed by id
/// gives O(1) lookups.
using Postings = std::vector<std::vector<uint32_t>>;

Postings BuildPostings(const std::vector<ComboCandidate>& combos,
                       std::vector<uint32_t> ComboCandidate::*field) {
  size_t universe = 0;
  for (const auto& c : combos) {
    const auto& ids = c.*field;
    if (!ids.empty()) universe = std::max<size_t>(universe, ids.back() + 1u);
  }
  Postings postings(universe);
  for (size_t c = 0; c < combos.size(); ++c) {
    for (uint32_t x : combos[c].*field) {
      postings[x].push_back(static_cast<uint32_t>(c));
    }
  }
  return postings;
}

/// ScanCount (Li, Lu & Lu, ICDE 2008): adds 1 to counts[j] for every id of
/// `ids` that combo j > i also holds, so afterwards counts[j] is exactly
/// |ids ∩ field_j| for every j > i.
void CountLaterOverlaps(const Postings& postings,
                        const std::vector<uint32_t>& ids, uint32_t i,
                        std::vector<uint32_t>& counts) {
  for (uint32_t x : ids) {
    const auto& list = postings[x];
    for (auto it = std::upper_bound(list.begin(), list.end(), i);
         it != list.end(); ++it) {
      ++counts[*it];
    }
  }
}

/// The paper's aggregation trigger: overlap ÷ min(|a|, |b|) > threshold.
bool OverlapExceeds(size_t overlap, size_t size_a, size_t size_b,
                    double threshold) {
  const size_t smaller = std::min(size_a, size_b);
  if (smaller == 0) return false;
  return static_cast<double>(overlap) / static_cast<double>(smaller) >
         threshold;
}

}  // namespace

size_t TokenSetHash::operator()(const std::vector<uint32_t>& tokens) const {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t t : tokens) {
    h ^= t + 0x9E3779B9u;
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h ^ tokens.size());
}

// The round applies the pairwise tests "for i < j: member test, else
// relation test" to exact overlap counts, so no pair needs a merge to be
// tested. Both indexes are built once from the frozen combo list. For each
// outer combo i, ScanCount over the member and token postings yields
// |members_i ∩ members_j| and |tokens_i ∩ tokens_j| for every j > i; a
// linear sweep over j then applies the two tests to those counts in
// ascending j, member test first. Pairs with both counts zero are skipped,
// which is exact for every option value: the member path only proposes a
// non-empty member intersection, and the relation path only a non-empty
// token intersection. A proposal is materialized lazily — its token set
// first, into a buffer the shard reuses, and a copy of it plus the member
// Union/Intersection only when the set is fresh — and the member path's
// min_support test reads the counted overlap, which equals the merged
// member count.
//
// The outer index is sharded into contiguous ranges. Shards only read the
// combos, the two indexes and `seen`; each owns its counters and records
// its proposals in (i, j) scan order. The `seen` insertion — the one piece
// of state a sequential scan mutates mid-scan — is replayed afterwards in
// shard order, which equals the sequential scan order because shards are
// contiguous i-ranges. Sets already in the pre-round `seen`, or repeated
// within one shard, can never survive the replay, so shards drop them up
// front (keeps the proposal buffers at O(unique sets) instead of
// O(qualifying pairs)).
std::vector<ComboCandidate> AggregateRound(
    const std::vector<ComboCandidate>& combos, TokenSetTable* seen,
    size_t min_support, double overlap, ThreadPool* workers) {
  const size_t n = combos.size();
  const Postings by_member = BuildPostings(combos, &ComboCandidate::members);
  const Postings by_token = BuildPostings(combos, &ComboCandidate::tokens);
  const size_t num_shards = DeterministicShardCount(n);
  std::vector<std::vector<ComboCandidate>> proposals(num_shards);
  ParallelForShards(workers, n, num_shards,
                    [&](size_t shard_idx, size_t begin, size_t end) {
    auto& local = proposals[shard_idx];
    TokenSetTable local_seen;
    std::vector<uint32_t> tokens;  // the current pair's proposed token set
    auto fresh = [&] {
      return seen->count(tokens) == 0 && local_seen.insert(tokens).second;
    };
    std::vector<uint32_t> shared_members(n, 0);
    std::vector<uint32_t> shared_tokens(n, 0);
    for (size_t i = begin; i < end; ++i) {
      const auto& ci = combos[i];
      const auto outer = static_cast<uint32_t>(i);
      CountLaterOverlaps(by_member, ci.members, outer, shared_members);
      CountLaterOverlaps(by_token, ci.tokens, outer, shared_tokens);
      for (size_t j = i + 1; j < n; ++j) {
        const size_t member_overlap = shared_members[j];
        const size_t token_overlap = shared_tokens[j];
        if (member_overlap == 0 && token_overlap == 0) continue;
        shared_members[j] = 0;
        shared_tokens[j] = 0;
        const auto& cj = combos[j];
        // Entity-based aggregation: members overlap > 90% => the union
        // of relations describes a finer shared category.
        if (OverlapExceeds(member_overlap, ci.members.size(),
                           cj.members.size(), overlap)) {
          if (member_overlap > 0 && member_overlap >= min_support) {
            UnionInto(ci.tokens, cj.tokens, &tokens);
            if (fresh()) {
              local.push_back(ComboCandidate{tokens, {}});
              IntersectionInto(ci.members, cj.members, &local.back().members);
            }
          }
          continue;
        }
        // Relation-based aggregation: relation sets overlap > 90% => a
        // more general category over the member union.
        if (token_overlap > 0 &&
            OverlapExceeds(token_overlap, ci.tokens.size(), cj.tokens.size(),
                           overlap)) {
          IntersectionInto(ci.tokens, cj.tokens, &tokens);
          if (fresh()) {
            local.push_back(ComboCandidate{tokens, {}});
            UnionInto(ci.members, cj.members, &local.back().members);
          }
        }
      }
    }
  });
  std::vector<ComboCandidate> added;
  // Audited for determinism: `proposals` is a vector of per-shard vectors
  // replayed here in fixed shard order, and each shard appended its
  // candidates in deterministic pair-scan order — so first-wins dedup via
  // `seen` admits the same candidates for every thread count.
  for (auto& local : proposals) {
    for (auto& candidate : local) {
      if (seen->insert(candidate.tokens).second) {
        added.push_back(std::move(candidate));
      }
    }
  }
  return added;
}

}  // namespace internal
}  // namespace anot
