#include "mining/prefixspan.h"

#include <algorithm>

#include "util/logging.h"

namespace anot {

namespace {

/// A projected database entry: transaction id + offset of the suffix.
struct Projection {
  uint32_t transaction;
  uint32_t offset;
};

/// The extension buckets of one prefix length. Items (relation tokens) are
/// dense, so bucket[item] is indexed directly: it holds the projections
/// that `item` extends, in projection order, and `touched` lists the items
/// whose bucket is non-empty. Grow visits `touched` ascending and empties
/// every bucket it filled, so each level is reused without reallocation.
struct Level {
  std::vector<std::vector<Projection>> bucket;
  std::vector<uint32_t> touched;
};

struct MineContext {
  // anot-own: all three point into PrefixSpan::Mine's frame, which owns
  // the context and every recursive Grow call reading it.
  const std::vector<std::vector<uint32_t>>* transactions;
  // anot-own: same Mine()-frame contract as transactions.
  const PrefixSpan::Options* options;
  // anot-own: same Mine()-frame contract as transactions.
  std::vector<FrequentItemset>* out;
  std::vector<uint32_t> prefix;
  /// levels[d] serves the prefixes of length d.
  std::vector<Level> levels;
  /// Set when max_patterns leaves a frequent itemset unemitted.
  bool cap_hit = false;
};

void Grow(MineContext* ctx, const std::vector<Projection>& projections) {
  // A prefix as long as max_length, or as the longest transaction, has no
  // extension to emit.
  if (ctx->prefix.size() >= ctx->levels.size()) return;
  Level& level = ctx->levels[ctx->prefix.size()];

  // Count per-item support within the projected database. Each transaction
  // contributes at most once per item because items are unique in a set.
  for (const Projection& p : projections) {
    const auto& txn = (*ctx->transactions)[p.transaction];
    for (uint32_t i = p.offset; i < txn.size(); ++i) {
      auto& next = level.bucket[txn[i]];
      if (next.empty()) level.touched.push_back(txn[i]);
      next.push_back(Projection{p.transaction, i + 1});
    }
  }
  std::sort(level.touched.begin(), level.touched.end());

  for (uint32_t item : level.touched) {
    auto& next = level.bucket[item];
    if (!ctx->cap_hit && next.size() >= ctx->options->min_support) {
      if (ctx->out->size() >= ctx->options->max_patterns) {
        ctx->cap_hit = true;  // prefix + item is frequent and unemitted
      } else {
        ctx->prefix.push_back(item);
        FrequentItemset pattern;
        pattern.items = ctx->prefix;
        pattern.owners.reserve(next.size());
        for (const Projection& p : next) {
          pattern.owners.push_back(p.transaction);
        }
        ctx->out->push_back(std::move(pattern));
        Grow(ctx, next);
        ctx->prefix.pop_back();
      }
    }
    next.clear();
  }
  level.touched.clear();
}

}  // namespace

std::vector<FrequentItemset> PrefixSpan::Mine(
    const std::vector<std::vector<uint32_t>>& transactions,
    const Options& options, bool* cap_hit) {
#ifndef NDEBUG
  for (const auto& txn : transactions) {
    ANOT_DCHECK(std::is_sorted(txn.begin(), txn.end()));
    ANOT_DCHECK(std::adjacent_find(txn.begin(), txn.end()) == txn.end());
  }
#endif
  std::vector<FrequentItemset> out;
  std::vector<Projection> root;
  root.reserve(transactions.size());
  size_t universe = 0;
  size_t longest = 0;
  for (uint32_t t = 0; t < transactions.size(); ++t) {
    const auto& txn = transactions[t];
    if (txn.empty()) continue;
    root.push_back(Projection{t, 0});
    universe = std::max<size_t>(universe, txn.back() + 1u);
    longest = std::max(longest, txn.size());
  }
  MineContext ctx{&transactions, &options, &out, {}, {}, false};
  ctx.levels.resize(std::min(options.max_length, longest));
  for (Level& level : ctx.levels) level.bucket.resize(universe);
  Grow(&ctx, root);
  if (cap_hit != nullptr) *cap_hit = ctx.cap_hit;
  return out;
}

}  // namespace anot
