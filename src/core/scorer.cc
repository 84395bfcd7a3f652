#include "core/scorer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/witness_scan.h"
#include "util/logging.h"

namespace anot {

namespace {
constexpr double kEpsilonSupport = 1e-9;

/// λ in Alg. 2 line 8: the static support temporal scoring needs. Every
/// static rule weighs at least 1, so λ = 1 gates exactly the knowledge
/// no selected rule maps.
constexpr double kLambda = 1.0;

/// Weak occurrence evidence contributed by the mapped rules themselves
/// (weight × static support added to Eq. 10's denominator). Keeps the
/// temporal score bounded for knowledge whose patterns carry no
/// occurrence-order expectation at all, instead of treating "no
/// expectation" as maximal anomaly.
constexpr double kTemporalBaseWeight = 0.05;

/// Weight of conflict mass (timespan disagreement, unmet one-shot
/// precursors, out-edge violations) in the extended Eq. 10 numerator.
constexpr double kConflictWeight = 3.0;
}  // namespace

Scorer::Scorer(const TemporalKnowledgeGraph* graph,
               const CategoryFunction* categories, const RuleGraph* rules,
               const DetectorOptions* options)
    : graph_(graph),
      categories_(categories),
      rules_(rules),
      options_(options) {
  ANOT_CHECK(graph_ && categories_ && rules_ && options_);
}

bool Scorer::CategoriesMatch(const AtomicRule& rule, EntityId s,
                             EntityId o) const {
  const auto& cs = categories_->Categories(s);
  if (!std::binary_search(cs.begin(), cs.end(), rule.subject_category)) {
    return false;
  }
  const auto& co = categories_->Categories(o);
  return std::binary_search(co.begin(), co.end(), rule.object_category);
}

bool Scorer::RuleMatchesFact(const AtomicRule& rule, const Fact& fact) const {
  return rule.relation == fact.relation &&
         CategoriesMatch(rule, fact.subject, fact.object);
}

small_vec<RuleId, 8> Scorer::MapToRules(const Fact& fact) const {
  small_vec<RuleId, 8> mapped;
  const auto& object_cats = categories_->Categories(fact.object);
  for (CategoryId cs : categories_->Categories(fact.subject)) {
    rules_->AppendRules(cs, fact.relation, object_cats, &mapped);
  }
  // Distinct (c_s, c_o) pairs name distinct rules, so there is nothing to
  // deduplicate. The order is part of the Eq. 9 sum's bit-identity.
  std::sort(mapped.begin(), mapped.end());
  return mapped;
}

double Scorer::RuleWeight(RuleId rule) const {
  if (options_->unit_rule_weight) return 1.0;
  return std::max<uint32_t>(1, rules_->support(rule));
}

uint32_t CountAgreements(const RuleEdge& edge, Timestamp delta,
                         Timestamp tolerance) {
  const auto& spans = edge.timespans;
  Timestamp lo = 0;
  Timestamp hi = 0;
  if (__builtin_sub_overflow(delta, tolerance, &lo)) {
    lo = std::numeric_limits<Timestamp>::min();
  }
  if (__builtin_add_overflow(delta, tolerance, &hi)) {
    hi = std::numeric_limits<Timestamp>::max();
  }
  const auto first = std::lower_bound(spans.begin(), spans.end(), lo);
  // Searching from `first` makes a negative tolerance (hi < lo) count 0.
  return static_cast<uint32_t>(std::upper_bound(first, spans.end(), hi) -
                               first);
}

double Scorer::EvidenceWeight(const RuleEdge& edge,
                              const Instantiation& inst) const {
  const double weight = RuleWeight(edge.tail);
  switch (options_->theta_mode) {
    case ThetaMode::kAsPrinted:
      // Literal Eq. 10: x = |A_v| / (θ + 1) with θ the agreement count.
      return weight / (static_cast<double>(inst.agreements) + 1.0);
    case ThetaMode::kMismatch:
      // Prose semantics ("θ indicates the gap"), normalized: evidence is
      // proportional to the empirical probability that the observed
      // timespan is typical for this edge.
      return weight * (1.0 + static_cast<double>(inst.agreements)) /
             (1.0 + static_cast<double>(edge.timespans.size()));
  }
  return 0.0;
}

void Scorer::ReadChainWindow(const Fact& fact, FactId exclude_witness,
                             ChainWindow* window) const {
  if (window->read_) return;
  window->read_ = true;
  const Timestamp tail_time = AnchorTime(fact, options_->tail_anchor);
  ScanRecentFacts(*graph_, graph_->FactsForPair(fact.subject, fact.object),
                  options_->head_anchor, tail_time, exclude_witness,
                  [&](FactId id, const Fact& g, Timestamp head_time) {
                    window->entries_[window->size_++] = {
                        id, g.relation, tail_time - head_time};
                    return true;
                  });
}

std::optional<Instantiation> Scorer::TryInstantiate(
    const RuleEdge& edge, const Fact& fact, FactId exclude_witness) const {
  ChainWindow window;
  return TryInstantiate(edge, fact, exclude_witness, &window);
}

std::optional<Instantiation> Scorer::TryInstantiate(
    const RuleEdge& edge, const Fact& fact, FactId exclude_witness,
    ChainWindow* chain_window) const {
  const AtomicRule& head_rule = rules_->rule(edge.head);

  if (edge.kind == RuleEdgeKind::kChain) {
    // A prior fact of the head rule on the same (s, o) pair. Every pair
    // fact has the fact's own subject and object, so the head's categories
    // are checked once and the window's entries by relation only.
    if (!CategoriesMatch(head_rule, fact.subject, fact.object)) {
      return std::nullopt;
    }
    ReadChainWindow(fact, exclude_witness, chain_window);
    // Evidence is existential, so among admissible witnesses we keep the
    // one whose timespan agrees best with T(e) (minimal θ); the newest
    // wins a tie.
    std::optional<Instantiation> best;
    for (const ChainWindow::Entry& entry : *chain_window) {
      if (entry.relation != head_rule.relation) continue;
      const uint32_t agreements =
          CountAgreements(edge, entry.delta, options_->timespan_tolerance);
      if (best.has_value() && agreements <= best->agreements) continue;
      best = Instantiation{entry.id, entry.delta, agreements};
      if (agreements == edge.timespans.size()) break;  // maximal
    }
    return best;
  }

  // Triadic: prior facts (s, r_m, p) and (o, r_n, p) co-occurring within L.
  const Timestamp tail_time = AnchorTime(fact, options_->tail_anchor);
  const AtomicRule& mid_rule = rules_->rule(edge.mid);
  const Timestamp window = options_->timespan_tolerance;
  std::optional<Instantiation> best;
  ScanRecentFacts(
      *graph_, graph_->FactsBySubject(fact.subject), options_->head_anchor,
      tail_time, exclude_witness,
      [&](FactId g1_id, const Fact& g1, Timestamp t1) {
        const EntityId p = g1.object;
        if (p == fact.object || p == fact.subject) return true;
        if (!RuleMatchesFact(head_rule, g1)) return true;
        ScanRecentFacts(
            *graph_, graph_->FactsForPair(fact.object, p),
            options_->head_anchor, tail_time, kInvalidId,
            [&](FactId, const Fact& g2, Timestamp t2) {
              if (std::llabs(t2 - t1) > window) return true;
              if (!RuleMatchesFact(mid_rule, g2)) return true;
              Instantiation inst{g1_id, tail_time - std::max(t1, t2), 0};
              inst.agreements = CountAgreements(
                  edge, inst.delta, options_->timespan_tolerance);
              if (!best.has_value() || inst.agreements > best->agreements) {
                best = inst;
              }
              return false;  // most recent admissible mid for this head
            });
        return !best.has_value() ||
               best->agreements != edge.timespans.size();  // maximal
      });
  return best;
}

Scorer::EdgeEvidence Scorer::EvidenceForEdge(RuleEdgeId edge_id,
                                             const Fact& fact, int depth,
                                             Walk* walk,
                                             Evidence* evidence) const {
  EdgeState& state = walk->edges[edge_id];
  if (state != EdgeState::kUnvisited) return {};
  const RuleEdge& edge = rules_->edge(edge_id);

  auto inst = TryInstantiate(edge, fact, kInvalidId, &walk->chain_window);
  state = inst.has_value() ? EdgeState::kInstantiated : EdgeState::kTried;
  if (inst.has_value()) {
    EdgeEvidence out;
    out.support = EvidenceWeight(edge, *inst);
    if (options_->theta_mode == ThetaMode::kMismatch) {
      // Fraction of preserved timespans the observation disagrees with:
      // conflict evidence of a time error.
      out.conflict = 1.0 - (1.0 + static_cast<double>(inst->agreements)) /
                               (1.0 + static_cast<double>(
                                          edge.timespans.size()));
    }
    if (evidence != nullptr) {
      const uint32_t disagreement =
          static_cast<uint32_t>(edge.timespans.size()) - inst->agreements;
      evidence->precursors.push_back(Evidence::Precursor{
          edge_id, edge.head, depth, true, inst->witness, inst->delta,
          disagreement});
    }
    return out;
  }

  if (evidence != nullptr) {
    evidence->precursors.push_back(Evidence::Precursor{
        edge_id, edge.head, depth, false, kInvalidId, 0, 0});
  }
  // Recursive strategy: use the precursor's own precursors as alternative
  // evidence, up to K hops (Alg. 2 lines 16-21).
  EdgeEvidence out;
  if (options_->use_recursion &&
      depth + 1 < static_cast<int>(options_->max_recursion_steps)) {
    for (RuleEdgeId in_edge : rules_->InEdges(edge.head)) {
      EdgeEvidence child =
          EvidenceForEdge(in_edge, fact, depth + 1, walk, evidence);
      out.support += child.support;
    }
  }
  // An unmet precursor expectation is conflict evidence at the top level,
  // but only for *obligatory* chain edges: the precursor historically
  // accompanied most tail occurrences (empirical P(head | tail) high),
  // the statistics are non-trivial, the pattern is one-shot (recurrent
  // tails legitimately re-occur without fresh precursors), and the edge
  // is not a self-loop (an uninstantiated self-loop is just a first
  // occurrence).
  if (depth == 0 && out.support == 0.0 &&
      edge.kind == RuleEdgeKind::kChain && edge.head != edge.tail &&
      !rules_->recurrent(edge.tail) && edge.timespans.size() >= 4) {
    const double obligation =
        static_cast<double>(edge.support) /
        std::max<double>(1.0, rules_->support(edge.tail));
    if (obligation >= 0.33) out.conflict += 1.0;
  }
  return out;
}

Scores Scorer::Score(const Fact& fact, Evidence* evidence) const {
  Scores scores;

  // ---- Static score (Eq. 9) ----------------------------------------------
  const auto mapped = MapToRules(fact);
  for (RuleId id : mapped) {
    const bool is_static = rules_->static_selected(id);
    if (is_static) scores.static_support += RuleWeight(id);
    if (evidence != nullptr) {
      evidence->mapped.push_back(
          Evidence::MappedRule{id, rules_->support(id), is_static});
    }
  }
  scores.static_score = 1.0 / (scores.static_support + kEpsilonSupport);

  // ---- λ gate (Alg. 2 line 8) ----------------------------------------------
  if (scores.static_support < kLambda) {
    // Gated knowledge is a *conceptual*-error candidate; no temporal
    // conflict evidence is gathered, so it ranks at the bottom of the
    // time-error task (Algorithm 2 returns S only).
    scores.temporal_score = 0.0;
    return scores;
  }
  scores.temporal_evaluated = true;

  // ---- Temporal score (Eq. 10) ----------------------------------------------
  Walk walk;
  walk.edges.assign(rules_->num_edges(), EdgeState::kUnvisited);
  for (RuleId id : mapped) {
    for (RuleEdgeId in_edge : rules_->InEdges(id)) {
      EdgeEvidence e = EvidenceForEdge(in_edge, fact, 0, &walk, evidence);
      scores.temporal_support += e.support;
      scores.temporal_conflict += e.conflict;
      // Association flag for the monitor: an instantiable in-edge of a
      // mapped rule means the fact is "associated with a previous fact via
      // a rule edge". Each edge is tried once — by this call, or earlier
      // at recursion depth > 0, where the visited filter then skips this
      // turn — so its recorded outcome is final here.
      scores.associated = scores.associated ||
                          walk.edges[in_edge] == EdgeState::kInstantiated;
    }
  }

  // ---- Out-edge violations (Eq. 10 extension) -------------------------------
  // The paper's "can be further extended" remark; needed for the
  // Trump/outgoing-president case.
  const auto* pair = graph_->FactsForPair(fact.subject, fact.object);
  const Timestamp head_time = AnchorTime(fact, options_->head_anchor);
  for (RuleId id : mapped) {
    for (RuleEdgeId out_id : rules_->OutEdges(id)) {
      const RuleEdge& edge = rules_->edge(out_id);
      if (edge.kind != RuleEdgeKind::kChain) continue;
      if (edge.head != id) continue;
      // Self-loops and recurrent successors: an earlier occurrence of a
      // repeating pattern is expected, not an order conflict.
      if (edge.tail == id) continue;
      if (rules_->recurrent(edge.tail)) continue;
      // The successor pattern already occurred before this knowledge:
      // an occurrence-order conflict.
      const AtomicRule& tail_rule = rules_->rule(edge.tail);
      ScanRecentFacts(
          *graph_, pair, options_->tail_anchor, head_time, kInvalidId,
          [&](FactId, const Fact& g, Timestamp) {
            if (!RuleMatchesFact(tail_rule, g)) return true;
            ++scores.out_violations;
            if (evidence != nullptr) evidence->violations.push_back(out_id);
            return false;
          });
    }
  }

  const double numerator =
      1.0 + kConflictWeight * (static_cast<double>(scores.out_violations) +
                               scores.temporal_conflict);
  const double base_evidence = kTemporalBaseWeight * scores.static_support;
  // The +1 bounds zero-signal knowledge (no expectations, no conflicts)
  // at a neutral score <= 1; conflict evidence pushes above 1, gathered
  // support pulls towards 0.
  scores.temporal_score =
      numerator / (1.0 + scores.temporal_support + base_evidence);
  return scores;
}

}  // namespace anot
