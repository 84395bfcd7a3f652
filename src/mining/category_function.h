#pragma once

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "tkg/graph.h"
#include "util/status.h"

namespace anot {

class Checkpoint;
class ThreadPool;

/// \brief Options controlling category-function construction (§4.3.1).
/// The mining caps (combination size, aggregation seeds, total categories)
/// are constants in category_function.cc.
struct CategoryFunctionOptions {
  /// Maximum categories assigned per entity (the paper's hyper-parameter k,
  /// swept over {1, 3, 5, 10} in Figure 9).
  size_t max_categories_per_entity = 3;
  /// Minimum entities sharing a relation combination for it to count.
  size_t min_support = 3;
  /// Fixpoint-loop cap for the aggregation passes; 0 skips aggregation
  /// (the Table 3 "-category aggregation" ablation).
  size_t max_aggregation_rounds = 4;

  /// The persisted field list, in checkpoint order (io/checkpoint.cc).
  template <class V>
  void Fields(V& v) {
    v(max_categories_per_entity);
    v(min_support);
    v(max_aggregation_rounds);
  }
};

/// \brief What the PrefixSpan stage of CategoryFunction::Build mined.
struct CategoryMiningStats {
  /// Frequent relation combinations PrefixSpan emitted.
  size_t num_mined_combinations = 0;
  /// True when PrefixSpan's pattern cap left at least one frequent
  /// combination unmined.
  bool combination_cap_hit = false;
};

/// \brief The category function C(·): entity -> set of implicit categories.
///
/// Categories are frequent relation combinations (directed tokens) mined by
/// PrefixSpan, refined by the paper's entity-based aggregation (combine
/// combinations whose member sets overlap >90% into a finer category) and
/// relation-based aggregation (combine combinations whose relation sets
/// overlap >90% into a more general category), then selected by descending
/// coverage until every entity holds up to k categories.
///
/// The function is *online-updatable*: when a new fact gives an entity a
/// previously unseen relation token, UpdateEntity implements Algorithm 3
/// lines 5-9 (choose the known combination containing the new token with
/// maximal coverage; fall back to a fresh singleton category).
class CategoryFunction {
 public:
  /// Builds C(·) from the offline-preserved part of the TKG. With a worker
  /// pool the token pass and the aggregation rounds run sharded
  /// (deterministic shard boundaries, merges replayed in scan order), so
  /// the result is bit-identical for every pool size including nullptr —
  /// the same contract as the candidate-generation pipeline.
  ///
  /// `cancel` (optional) is polled between phases — an abandoned
  /// background rebuild sets it to stop burning CPU. Once it reads true
  /// the returned function is INCOMPLETE and must be discarded.
  ///
  /// `stats` (optional) receives the PrefixSpan counts.
  static CategoryFunction Build(const TemporalKnowledgeGraph& graph,
                                const CategoryFunctionOptions& options,
                                ThreadPool* workers = nullptr,
                                const std::atomic<bool>* cancel = nullptr,
                                CategoryMiningStats* stats = nullptr);

  /// Categories of entity e (ascending ids; empty for unseen entities).
  const std::vector<CategoryId>& Categories(EntityId e) const
      ANOT_LIFETIME_BOUND;

  /// Total number of categories, |C_E|.
  size_t num_categories() const { return categories_.size(); }

  /// The relation-token combination defining category c.
  const std::vector<uint32_t>& Combination(CategoryId c) const
      ANOT_LIFETIME_BOUND;

  /// Entities currently assigned category c.
  const std::vector<EntityId>& Members(CategoryId c) const
      ANOT_LIFETIME_BOUND;

  /// Human-readable rendering, e.g. "host_visit | ~born_in" where "~"
  /// marks the object side of a relation.
  std::string Describe(CategoryId c,
                       const TemporalKnowledgeGraph& graph) const;

  /// Handles entity semantic changes (Algorithm 3): entity e has gained
  /// `new_token`. Call it only after the fact that brought the token is in
  /// the graph: R(e) then holds the token, so every category containing it
  /// passes Algorithm 3 line 7's intersects-R(e) test. Assigns the category
  /// containing the token with the most members (ties: lowest id), or a
  /// fresh anonymous singleton category when none contains it. Returns the
  /// category assigned, or kInvalidId when e already carries it.
  CategoryId UpdateEntity(EntityId e, uint32_t new_token);

  /// Checks the category list, the only stored form, against its
  /// invariants: each category's tokens and members strictly ascending,
  /// and every member inside the entity universe `num_entities`. Returns
  /// the first violation.
  Status Validate(size_t num_entities) const;

  /// Debug validator (compiled behind ANOT_VALIDATE, no-op otherwise):
  /// Validate() plus an exact recompute of the two tables derived from the
  /// category list, the token index and C(e) (the inverse of the member
  /// lists). ANOT_CHECK-fails on the first violation.
  void CheckInvariants(size_t num_entities) const;

 private:
  /// The checkpoint codec (io/checkpoint.h) writes the category list and
  /// rebuilds the derived tables from it at load through AddCategory.
  friend class Checkpoint;

  struct CategoryInfo {
    std::vector<uint32_t> tokens;   // ascending
    std::vector<EntityId> members;  // ascending

    /// The persisted field list, in checkpoint order.
    template <class V>
    void Fields(V& v) {
      v.List(tokens);
      v.List(members);
    }
  };

  /// The invariants Validate() checks, for one category.
  static Status ValidateCategory(CategoryId c, const CategoryInfo& info,
                                 size_t num_entities);

  /// Appends category (tokens, members), indexes its tokens and adds it to
  /// C(e) of every member, which must lie inside entity_categories_.
  CategoryId AddCategory(std::vector<uint32_t> tokens,
                         std::vector<EntityId> members);
  /// Adds e to category c and c to C(e); false when e already carries c.
  bool AddMember(CategoryId c, EntityId e);

  /// The category list: the only stored form of C(·).
  std::vector<CategoryInfo> categories_;
  /// Derived: C(e), ascending, indexed by entity.
  std::vector<std::vector<CategoryId>> entity_categories_;
  /// Derived: token -> categories whose combination contains it, ascending.
  std::unordered_map<uint32_t, std::vector<CategoryId>> token_index_;
};

}  // namespace anot
