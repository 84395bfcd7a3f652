#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tkg/graph.h"
#include "util/random.h"

namespace anot {

/// \brief Configuration of the synthetic TKG world model.
///
/// The generator plants exactly the structures AnoT exploits — latent
/// entity categories, relation schemas over categories, chain-occurring
/// rules with characteristic timespans, and triadic-closure rules — plus a
/// controllable fraction of schema-free noise facts. README "Synthetic
/// presets and documented deviations" explains why this substitution
/// preserves the paper's experimental behaviour.
struct GeneratorConfig {
  std::string name = "synthetic";
  uint64_t seed = 42;

  size_t num_entities = 1000;
  size_t num_relations = 50;
  size_t num_timestamps = 365;
  size_t num_facts = 20000;
  size_t num_categories = 12;

  /// Zipf exponents for entity popularity within a category and for
  /// relation frequency.
  double entity_zipf = 0.9;
  double relation_zipf = 0.8;

  /// Planted sequential patterns.
  size_t num_chain_rules = 12;
  size_t num_triadic_rules = 6;
  double chain_follow_prob = 0.55;
  double triadic_follow_prob = 0.45;

  /// Fraction of facts drawn uniformly at random (schema-free noise).
  double noise_fraction = 0.05;

  /// Probability a base fact recurs (same s, r, o after a characteristic
  /// per-relation gap) — event KGs like ICEWS/GDELT are recurrence-heavy
  /// ("consult", "make_statement" repeat between the same pairs), which is
  /// what makes r->r self-chain edges informative.
  double recurrence_prob = 0.35;

  /// Probability an entity also joins a second category.
  double secondary_category_prob = 0.25;

  /// Triadic co-occurrence window, in ticks.
  size_t triadic_window = 3;

  /// Duration-based TKG (Wikidata-style): facts get end = start + Exp(mean).
  bool durations = false;
  double mean_duration = 50.0;
};

/// A planted chain rule: head relation followed by tail relation on the
/// same (s, o) pair after ~Normal(mean_gap, jitter) ticks.
struct ChainRuleTemplate {
  RelationId head;
  RelationId tail;
  double mean_gap;
  double jitter;
};

/// A planted triadic rule: (s, head, o) and (h, mid, o) co-occurring within
/// the window trigger (s, close, h) after ~mean_gap ticks.
struct TriadicRuleTemplate {
  RelationId head;
  RelationId mid;
  RelationId close;
  double mean_gap;
};

/// \brief Ground truth of the generated world (for white-box tests).
struct WorldModel {
  std::vector<std::string> category_names;
  /// Primary (and optional secondary) category per entity id.
  std::vector<CategoryId> entity_primary_category;
  std::vector<CategoryId> entity_secondary_category;  // kInvalidId if none
  std::vector<std::vector<EntityId>> category_members;
  /// (subject category, object category) per relation id.
  std::vector<std::pair<CategoryId, CategoryId>> relation_schema;
  /// Characteristic recurrence gap per relation id (ticks).
  std::vector<double> relation_recurrence_gap;
  std::vector<ChainRuleTemplate> chain_rules;
  std::vector<TriadicRuleTemplate> triadic_rules;
};

/// \brief Deterministic synthetic TKG generator.
///
/// Usage:
///   SyntheticGenerator gen(config);
///   auto graph = gen.Generate();
///   const WorldModel& truth = gen.world();
class SyntheticGenerator {
 public:
  explicit SyntheticGenerator(const GeneratorConfig& config);

  /// Generates the full TKG. Entities and relations carry human-readable
  /// names ("PERSON_12", "host_visit") for the interpretability tables.
  std::unique_ptr<TemporalKnowledgeGraph> Generate();

  const WorldModel& world() const ANOT_LIFETIME_BOUND { return world_; }
  const GeneratorConfig& config() const ANOT_LIFETIME_BOUND {
    return config_;
  }

 private:
  void BuildWorld();
  std::string EntityNameFor(EntityId e) const;

  GeneratorConfig config_;
  Rng rng_;
  WorldModel world_;
  std::vector<std::string> relation_names_;
};

}  // namespace anot
