#pragma once

#include <string>
#include <vector>

#include "core/scorer.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/lifetime.h"

namespace anot {

/// \brief Human-readable explanations and correcting prompts (§4.3.4).
///
/// Everything here is presentation-layer: the scorer produces structured
/// Evidence; the explainer renders it and derives the paper's three kinds
/// of correcting prompts (entity/relation revision for conceptual errors,
/// timing guidance for time errors, extraction prompts for missing facts).
class Explainer {
 public:
  Explainer(const TemporalKnowledgeGraph* graph,
            const CategoryFunction* categories, const RuleGraph* rules);

  /// "(<subject-category>, relation, <object-category>)".
  std::string DescribeRule(RuleId rule) const;
  std::string DescribeRule(const AtomicRule& rule) const;

  /// "(subject, relation, object, t)".
  std::string DescribeFact(const Fact& fact) const;

  /// Renders the full evidence trail of a scored fact.
  std::string RenderEvidence(const Fact& fact,
                             const Evidence& evidence) const;

  /// Correcting prompts for a conceptual error: selected rules that
  /// partially match (same subject category + relation, or same category
  /// pair) suggest how to revise the object or the relation.
  std::vector<std::string> ConceptualPrompts(const Fact& fact) const;

  /// Correcting prompts for a time error: in-edges say after what the
  /// knowledge should occur (and with what typical timespans); violated
  /// out-edges say what it must precede.
  std::vector<std::string> TimePrompts(const Evidence& evidence) const;

  /// Missing-knowledge prompts: precursors that failed to instantiate
  /// point at knowledge worth (re-)extracting.
  std::vector<std::string> MissingPrompts(const Evidence& evidence) const;

 private:
  std::string DescribeCategory(CategoryId c) const;

  // anot-own: borrowed from the AnoT that built this explainer
  // (MakeExplainer); explainers are presentation-layer temporaries the
  // caller drops before mutating or destroying the detector.
  not_null<const TemporalKnowledgeGraph*> graph_;
  not_null<const CategoryFunction*> categories_;
  not_null<const RuleGraph*> rules_;
};

}  // namespace anot
