#include "core/explain.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace anot {

Explainer::Explainer(const TemporalKnowledgeGraph* graph,
                     const CategoryFunction* categories,
                     const RuleGraph* rules)
    : graph_(graph), categories_(categories), rules_(rules) {
  ANOT_CHECK(graph_ && categories_ && rules_);
}

std::string Explainer::DescribeCategory(CategoryId c) const {
  return "<" + categories_->Describe(c, *graph_) + ">";
}

std::string Explainer::DescribeRule(const AtomicRule& rule) const {
  return "(" + DescribeCategory(rule.subject_category) + ", " +
         graph_->RelationName(rule.relation) + ", " +
         DescribeCategory(rule.object_category) + ")";
}

std::string Explainer::DescribeRule(RuleId rule) const {
  return DescribeRule(rules_->rule(rule));
}

std::string Explainer::DescribeFact(const Fact& fact) const {
  std::string out = "(" + graph_->EntityName(fact.subject) + ", " +
                    graph_->RelationName(fact.relation) + ", " +
                    graph_->EntityName(fact.object) + ", " +
                    std::to_string(fact.time);
  if (fact.end != fact.time) out += ".." + std::to_string(fact.end);
  return out + ")";
}

std::string Explainer::RenderEvidence(const Fact& fact,
                                      const Evidence& evidence) const {
  std::string out = "knowledge " + DescribeFact(fact) + "\n";
  if (evidence.mapped.empty()) {
    out += "  maps to NO known interaction pattern (conceptual conflict)\n";
  }
  for (const auto& m : evidence.mapped) {
    out += StrFormat("  complies with %s  [support %u%s]\n",
                     DescribeRule(m.rule).c_str(), m.support,
                     m.static_selected ? "" : ", temporal-only");
  }
  for (const auto& p : evidence.precursors) {
    const RuleEdge& edge = rules_->edge(p.edge);
    if (p.instantiated) {
      out += StrFormat(
          "  preceded by %s (observed %s, timespan %lld, disagreement %u) "
          "[depth %d]\n",
          DescribeRule(edge.head).c_str(),
          DescribeFact(graph_->fact(p.witness)).c_str(),
          static_cast<long long>(p.delta), p.theta, p.depth);
    } else {
      out += StrFormat("  expected precursor %s NOT found [depth %d]\n",
                       DescribeRule(edge.head).c_str(), p.depth);
    }
  }
  for (RuleEdgeId v : evidence.violations) {
    out += "  ORDER VIOLATION: successor pattern " +
           DescribeRule(rules_->edge(v).tail) +
           " already occurred earlier\n";
  }
  return out;
}

std::vector<std::string> Explainer::ConceptualPrompts(
    const Fact& fact) const {
  std::vector<std::string> prompts;
  const auto& subject_cats = categories_->Categories(fact.subject);
  const auto& object_cats = categories_->Categories(fact.object);

  // Same subject category + relation, different object category: suggests
  // revising the object.
  for (RuleId id = 0; id < rules_->num_rules(); ++id) {
    if (!rules_->static_selected(id)) continue;
    const AtomicRule& r = rules_->rule(id);
    const bool cs_match = std::binary_search(
        subject_cats.begin(), subject_cats.end(), r.subject_category);
    const bool co_match = std::binary_search(
        object_cats.begin(), object_cats.end(), r.object_category);
    if (r.relation == fact.relation && cs_match && !co_match) {
      prompts.push_back("object should be a " +
                        DescribeCategory(r.object_category) + " (rule " +
                        DescribeRule(r) + ")");
    } else if (r.relation != fact.relation && cs_match && co_match) {
      prompts.push_back("relation could be '" +
                        graph_->RelationName(r.relation) + "' (rule " +
                        DescribeRule(r) + ")");
    }
    if (prompts.size() >= 8) break;
  }
  return prompts;
}

std::vector<std::string> Explainer::TimePrompts(
    const Evidence& evidence) const {
  std::vector<std::string> prompts;
  for (const auto& p : evidence.precursors) {
    if (!p.instantiated || p.depth != 0) continue;
    const RuleEdge& edge = rules_->edge(p.edge);
    if (edge.timespans.empty()) continue;
    const Timestamp median =
        edge.timespans[edge.timespans.size() / 2];
    prompts.push_back(StrFormat(
        "should occur ~%lld ticks after %s (observed gap %lld)",
        static_cast<long long>(median), DescribeRule(edge.head).c_str(),
        static_cast<long long>(p.delta)));
  }
  for (RuleEdgeId v : evidence.violations) {
    prompts.push_back("must occur BEFORE " +
                      DescribeRule(rules_->edge(v).tail) +
                      ", which already happened");
  }
  return prompts;
}

std::vector<std::string> Explainer::MissingPrompts(
    const Evidence& evidence) const {
  std::vector<std::string> prompts;
  for (const auto& p : evidence.precursors) {
    if (p.instantiated) continue;
    const RuleEdge& edge = rules_->edge(p.edge);
    prompts.push_back("knowledge matching " + DescribeRule(edge.head) +
                      " may be missing from the TKG");
    if (prompts.size() >= 8) break;
  }
  return prompts;
}

}  // namespace anot
