#include "mining/category_function.h"

#include <algorithm>

#include "mining/category_aggregation.h"
#include "mining/prefixspan.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace anot {

namespace {

using internal::AggregateRound;
using internal::ComboCandidate;
using internal::TokenSetTable;

const std::vector<CategoryId> kNoCategories;

/// Maximum relations per mined combination (paper: 3).
constexpr size_t kMaxCombinationSize = 3;
/// Only the top combinations by coverage seed aggregation. Each round
/// compares every pair of combinations through exact overlap counts on an
/// inverted index, so its cost grows with the combinations' shared
/// members; this cap (and the 4x stop on the grown list) bounds it.
constexpr size_t kMaxAggregationCandidates = 800;
/// Safety cap on the total number of categories kept.
constexpr size_t kMaxCategories = 50000;
/// Overlap ratio triggering entity-/relation-based aggregation (paper: 0.9).
constexpr double kAggregationOverlap = 0.9;

}  // namespace

CategoryFunction CategoryFunction::Build(
    const TemporalKnowledgeGraph& graph,
    const CategoryFunctionOptions& options, ThreadPool* workers,
    const std::atomic<bool>* cancel, CategoryMiningStats* stats) {
  CategoryFunction fn;
  fn.entity_categories_.resize(graph.num_entities());
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };

  // 1. Transactions: each entity's directed relation token set, already
  // ascending (a sorted_small_set).
  std::vector<std::vector<uint32_t>> transactions(graph.num_entities());
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    const auto& tokens = graph.RelationTokens(e);
    transactions[e].assign(tokens.begin(), tokens.end());
  }

  if (cancelled()) return fn;

  // 2. Frequent relation combinations via PrefixSpan.
  PrefixSpan::Options ps;
  ps.min_support = options.min_support;
  ps.max_length = kMaxCombinationSize;
  bool cap_hit = false;
  auto mined = PrefixSpan::Mine(transactions, ps, &cap_hit);
  if (stats != nullptr) {
    stats->num_mined_combinations = mined.size();
    stats->combination_cap_hit = cap_hit;
  }

  std::vector<ComboCandidate> combos;
  combos.reserve(mined.size());
  for (auto& m : mined) {
    combos.push_back(ComboCandidate{std::move(m.items), std::move(m.owners)});
  }

  // 3. Aggregation passes (paper §4.3.1). Only the widest-coverage
  // combinations seed aggregation: every round compares each pair of
  // combinations (by exact overlap counts, see AggregateRound), and each
  // round's output joins the next round's input. Mined token sets are
  // distinct, so the order is strict and total: partitioning off the top
  // seeds and sorting only those gives the full sort's prefix.
  const auto by_coverage = [](const ComboCandidate& a,
                              const ComboCandidate& b) {
    if (a.members.size() != b.members.size()) {
      return a.members.size() > b.members.size();
    }
    return a.tokens < b.tokens;
  };
  if (combos.size() > kMaxAggregationCandidates) {
    std::nth_element(combos.begin(),
                     combos.begin() + kMaxAggregationCandidates, combos.end(),
                     by_coverage);
    combos.resize(kMaxAggregationCandidates);
  }
  std::sort(combos.begin(), combos.end(), by_coverage);

  TokenSetTable seen;
  for (const auto& c : combos) seen.insert(c.tokens);
  for (size_t round = 0;
       round < options.max_aggregation_rounds && !cancelled(); ++round) {
    std::vector<ComboCandidate> added =
        AggregateRound(combos, &seen, options.min_support,
                       kAggregationOverlap, workers);
    if (added.empty()) break;
    for (auto& c : added) combos.push_back(std::move(c));
    if (combos.size() > 4 * kMaxAggregationCandidates) break;
  }

  if (cancelled()) return fn;

  // 4. Selection: descending coverage, assign until each entity carries
  // up to k categories (paper: "select one by one until each entity has
  // at least k categories" — bounded by the available combinations).
  std::sort(combos.begin(), combos.end(),
            [](const ComboCandidate& a, const ComboCandidate& b) {
              if (a.members.size() != b.members.size()) {
                return a.members.size() > b.members.size();
              }
              if (a.tokens.size() != b.tokens.size()) {
                return a.tokens.size() > b.tokens.size();  // finer first
              }
              return a.tokens < b.tokens;
            });

  const size_t k = std::max<size_t>(1, options.max_categories_per_entity);
  for (auto& combo : combos) {
    if (fn.categories_.size() >= kMaxCategories) break;
    // Keep only members that still need categories.
    std::vector<EntityId> takers;
    takers.reserve(combo.members.size());
    for (EntityId e : combo.members) {
      if (fn.entity_categories_[e].size() < k) takers.push_back(e);
    }
    if (takers.size() < options.min_support) continue;
    fn.AddCategory(std::move(combo.tokens), std::move(takers));
  }

  // 5. Fallback: entities with no category yet get a singleton category
  // for their most frequent relation token, guaranteeing total coverage.
  // One singleton per token, indexed by token; entities are visited in
  // ascending order, so each member list stays sorted.
  std::vector<CategoryId> singletons(2 * graph.num_relations(), kInvalidId);
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    if (!fn.entity_categories_[e].empty()) continue;
    const auto& txn = transactions[e];
    if (txn.empty()) continue;  // isolated entity: stays uncategorized
    CategoryId& c = singletons[txn.front()];
    if (c == kInvalidId) {
      c = fn.AddCategory({txn.front()}, {e});
    } else {
      fn.AddMember(c, e);
    }
  }

  return fn;
}

CategoryId CategoryFunction::AddCategory(std::vector<uint32_t> tokens,
                                         std::vector<EntityId> members) {
  const CategoryId id = static_cast<CategoryId>(categories_.size());
  for (uint32_t t : tokens) token_index_[t].push_back(id);
  // id is the largest category id yet, so appending keeps C(e) ascending.
  for (EntityId e : members) entity_categories_[e].push_back(id);
  categories_.push_back(CategoryInfo{std::move(tokens), std::move(members)});
  return id;
}

bool CategoryFunction::AddMember(CategoryId c, EntityId e) {
  auto& cats = entity_categories_[e];
  auto pos = std::lower_bound(cats.begin(), cats.end(), c);
  if (pos != cats.end() && *pos == c) return false;
  cats.insert(pos, c);
  auto& members = categories_[c].members;
  members.insert(std::lower_bound(members.begin(), members.end(), e), e);
  return true;
}

const std::vector<CategoryId>& CategoryFunction::Categories(
    EntityId e) const {
  if (e >= entity_categories_.size()) return kNoCategories;
  return entity_categories_[e];
}

const std::vector<uint32_t>& CategoryFunction::Combination(
    CategoryId c) const {
  ANOT_CHECK(c < categories_.size());
  return categories_[c].tokens;
}

const std::vector<EntityId>& CategoryFunction::Members(CategoryId c) const {
  ANOT_CHECK(c < categories_.size());
  return categories_[c].members;
}

std::string CategoryFunction::Describe(
    CategoryId c, const TemporalKnowledgeGraph& graph) const {
  ANOT_CHECK(c < categories_.size());
  std::string out;
  for (size_t i = 0; i < categories_[c].tokens.size(); ++i) {
    if (i > 0) out += " | ";
    const uint32_t token = categories_[c].tokens[i];
    if (!IsOutToken(token)) out += "~";
    out += graph.RelationName(TokenRelation(token));
  }
  return out;
}

CategoryId CategoryFunction::UpdateEntity(EntityId e, uint32_t new_token) {
  if (e >= entity_categories_.size()) entity_categories_.resize(e + 1);
  // Algorithm 3 line 7: the category containing the token that covers the
  // most entities. The index lists ids ascending, so the first of equally
  // large categories wins.
  CategoryId best = kInvalidId;
  auto it = token_index_.find(new_token);
  if (it != token_index_.end()) {
    for (CategoryId c : it->second) {
      if (best == kInvalidId ||
          categories_[c].members.size() > categories_[best].members.size()) {
        best = c;
      }
    }
  }
  // Lines 8-9: an anonymous singleton category for the new behaviour.
  if (best == kInvalidId) return AddCategory({new_token}, {e});
  return AddMember(best, e) ? best : kInvalidId;
}

namespace {

template <class T>
bool StrictlyAscending(const std::vector<T>& v) {
  return std::adjacent_find(v.begin(), v.end(), [](const T& a, const T& b) {
           return a >= b;
         }) == v.end();
}

}  // namespace

Status CategoryFunction::ValidateCategory(CategoryId c,
                                          const CategoryInfo& info,
                                          size_t num_entities) {
  if (!StrictlyAscending(info.tokens)) {
    return Status::Internal(
        StrFormat("category %u tokens not strictly ascending", c));
  }
  if (!StrictlyAscending(info.members)) {
    return Status::Internal(
        StrFormat("category %u members not strictly ascending", c));
  }
  if (!info.members.empty() && info.members.back() >= num_entities) {
    return Status::Internal(StrFormat(
        "category %u has a member outside the entity universe", c));
  }
  return Status::OK();
}

Status CategoryFunction::Validate(size_t num_entities) const {
  for (CategoryId c = 0; c < categories_.size(); ++c) {
    ANOT_RETURN_NOT_OK(ValidateCategory(c, categories_[c], num_entities));
  }
  return Status::OK();
}

void CategoryFunction::CheckInvariants(size_t num_entities) const {
#ifdef ANOT_VALIDATE
  ANOT_CHECK_OK(Validate(num_entities));
  ANOT_CHECK(entity_categories_.size() <= num_entities)
      << "entity-category table larger than the entity universe";
  // Both derived tables are filled in category-id order, so the recompute
  // in id order must match exactly (content and order).
  std::unordered_map<uint32_t, std::vector<CategoryId>> want_index;
  std::vector<std::vector<CategoryId>> want_categories(
      entity_categories_.size());
  for (CategoryId c = 0; c < categories_.size(); ++c) {
    for (uint32_t t : categories_[c].tokens) want_index[t].push_back(c);
    for (EntityId e : categories_[c].members) {
      ANOT_CHECK(e < want_categories.size())
          << "category " << c << " member " << e << " has no C(e) slot";
      want_categories[e].push_back(c);
    }
  }
  ANOT_CHECK(token_index_ == want_index) << "token index diverged";
  ANOT_CHECK(entity_categories_ == want_categories)
      << "C(e) is not the inverse of the member lists";
#else
  (void)num_entities;
#endif  // ANOT_VALIDATE
}

}  // namespace anot
