#include "core/updater.h"

#include <algorithm>
#include <cmath>

#include "mdl/encoding.h"
#include "util/logging.h"

namespace anot {

Updater::Updater(TemporalKnowledgeGraph* graph, CategoryFunction* categories,
                 RuleGraph* rules, const DetectorOptions* detector_options)
    : graph_(graph),
      categories_(categories),
      rules_(rules),
      detector_options_(detector_options),
      scorer_(graph, categories, rules, detector_options) {
  ANOT_CHECK(graph_ && categories_ && rules_);
}

bool Updater::ShouldAdmitRule(uint32_t online_support) const {
  if (online_support < kNewRuleMinSupport) return false;
  // Marginal MDL test: the tier-1 savings of the supporting facts must
  // exceed a conservative estimate of the rule's model cost
  // (log2 |C_E| + 2 log2 |E| + log2 |R| + 1 ≈ AtomicRuleBits upper bound).
  const double e = Tier2Universe(graph_->num_entities());
  const double r = std::max<double>(2.0, graph_->num_relations());
  const double per_fact_savings = std::log2(
      Tier1Universe(graph_->num_entities(), graph_->num_relations()));
  const double approx_rule_cost =
      std::log2(std::max<double>(2.0, categories_->num_categories())) +
      2.0 * std::log2(e) + std::log2(r) + 1.0;
  return static_cast<double>(online_support) * per_fact_savings >
         approx_rule_cost;
}

uint32_t Updater::TouchPendingRule(const AtomicRule& rule) {
  auto [it, inserted] = pending_index_.try_emplace(rule, kNil);
  if (!inserted) {
    const uint32_t i = it->second;
    if (i != pending_head_) {
      UnlinkPending(i);
      PushPendingFront(i);
    }
    return ++pending_nodes_[i].support;
  }
  // A new pattern takes the coldest node when the table is full, else a
  // freed node, else a new one.
  uint32_t i = kNil;
  const bool evict = pending_index_.size() > kMaxPendingRules;
  if (evict) {
    i = pending_tail_;
    UnlinkPending(i);
    ++pending_evictions_;
  } else if (pending_free_ != kNil) {
    i = pending_free_;
    pending_free_ = pending_nodes_[i].next;
  } else {
    i = static_cast<uint32_t>(pending_nodes_.size());
    pending_nodes_.emplace_back();
  }
  it->second = i;
  // Erasing moves index slots, so it comes after the last use of `it`.
  if (evict) pending_index_.erase(pending_nodes_[i].rule);
  pending_nodes_[i].rule = rule;
  pending_nodes_[i].support = 1;
  PushPendingFront(i);
  return 1;
}

void Updater::ErasePendingRule(const AtomicRule& rule) {
  auto it = pending_index_.find(rule);
  if (it == pending_index_.end()) return;
  const uint32_t i = it->second;
  pending_index_.erase(rule);
  UnlinkPending(i);
  pending_nodes_[i].next = pending_free_;
  pending_free_ = i;
}

void Updater::UnlinkPending(uint32_t i) {
  const PendingNode& n = pending_nodes_[i];
  (n.prev == kNil ? pending_head_ : pending_nodes_[n.prev].next) = n.next;
  (n.next == kNil ? pending_tail_ : pending_nodes_[n.next].prev) = n.prev;
}

void Updater::PushPendingFront(uint32_t i) {
  PendingNode& n = pending_nodes_[i];
  n.prev = kNil;
  n.next = pending_head_;
  (pending_head_ == kNil ? pending_tail_
                         : pending_nodes_[pending_head_].prev) = i;
  pending_head_ = i;
}

Status Updater::Validate() const {
  if (pending_index_.size() > kMaxPendingRules) {
    return Status::Internal("pending table exceeds its cap");
  }
  for (uint32_t i = pending_head_; i != kNil; i = pending_nodes_[i].next) {
    const PendingNode& entry = pending_nodes_[i];
    if (entry.support < 1) {
      return Status::Internal("pending rule with zero support");
    }
    ANOT_RETURN_NOT_OK(entry.rule.ValidateIds(categories_->num_categories(),
                                              graph_->num_relations()));
  }
  // "Pending or admitted, never both": one index probe per rule.
  if (!pending_index_.empty()) {
    for (RuleId id = 0; id < rules_->num_rules(); ++id) {
      if (pending_index_.contains(rules_->rule(id))) {
        return Status::Internal(
            "rule is both pending and admitted to the rule graph");
      }
    }
  }
  return Status::OK();
}

void Updater::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  // The structure first: Validate() walks the list and needs it sound.
  const size_t num_nodes = pending_nodes_.size();
  size_t linked = 0;
  uint32_t prev = kNil;
  for (uint32_t i = pending_head_; i != kNil; i = pending_nodes_[i].next) {
    ANOT_CHECK(i < num_nodes && linked < num_nodes)
        << "pending LRU list leaves its nodes or cycles";
    const PendingNode& node = pending_nodes_[i];
    ANOT_CHECK(node.prev == prev) << "pending LRU links are not mutual";
    auto entry = pending_index_.find(node.rule);
    ANOT_CHECK(entry != pending_index_.end() && entry->second == i)
        << "pending LRU node is not indexed at its slot";
    prev = i;
    ++linked;
  }
  ANOT_CHECK(prev == pending_tail_) << "pending LRU list ends off its tail";
  ANOT_CHECK(linked == pending_index_.size())
      << "pending index (" << pending_index_.size() << ") and LRU list ("
      << linked << ") diverged";
  size_t free_nodes = 0;
  for (uint32_t i = pending_free_; i != kNil; i = pending_nodes_[i].next) {
    ANOT_CHECK(i < num_nodes && free_nodes < num_nodes)
        << "pending free list leaves its nodes or cycles";
    ++free_nodes;
  }
  ANOT_CHECK(linked + free_nodes == num_nodes)
      << "a pending node is neither linked nor free";
  ANOT_CHECK_OK(Validate());
#endif  // ANOT_VALIDATE
}

UpdateEffects Updater::Ingest(const Fact& fact) {
  UpdateEffects effects;
  effects.facts_ingested = 1;

  // ---- Entity semantic changes (Alg. 3 lines 4-9) --------------------------
  // Token novelty must be checked before the fact lands in the graph.
  const uint32_t s_token = OutRelationToken(fact.relation);
  const uint32_t o_token = InRelationToken(fact.relation);
  const bool new_s_token =
      graph_->RelationTokens(fact.subject).count(s_token) == 0;
  const bool new_o_token =
      graph_->RelationTokens(fact.object).count(o_token) == 0;

  // ---- Graph structure changes (Alg. 3 line 3) ------------------------------
  const FactId added_fact = graph_->AddFact(fact);

  // UpdateEntity runs after AddFact: R(e) must already hold the token.
  if (new_s_token &&
      categories_->UpdateEntity(fact.subject, s_token) != kInvalidId) {
    ++effects.new_entity_categories;
  }
  if (new_o_token &&
      categories_->UpdateEntity(fact.object, o_token) != kInvalidId) {
    ++effects.new_entity_categories;
  }

  // ---- Graph pattern changes (Alg. 3 lines 10-14) ---------------------------
  // The graph no longer changes, so one window of the fact's chain
  // witnesses serves both the wiring and line 15. It excludes the instance
  // just appended by id, not distinct earlier occurrences of an identical
  // fact: those are real precursors of a recurring pattern. `mapped`
  // collects line 15's rule set: every rule found or admitted below.
  Scorer::ChainWindow window;
  small_vec<RuleId, 8> mapped;
  for (CategoryId cs : categories_->Categories(fact.subject)) {
    for (CategoryId co : categories_->Categories(fact.object)) {
      const AtomicRule rule{cs, fact.relation, co};
      auto existing = rules_->FindRule(rule);
      if (existing.has_value()) {
        // Known pattern: refresh its support (used by Eqs. 9-10).
        rules_->AddSupport(*existing, 1);
        mapped.push_back(*existing);
        continue;
      }
      const uint32_t support = TouchPendingRule(rule);
      if (!ShouldAdmitRule(support)) continue;
      ErasePendingRule(rule);
      const RuleId added = rules_->AddRule(rule, /*static_selected=*/true);
      rules_->SetSupport(added, support);
      mapped.push_back(added);
      ++effects.new_rule_nodes;

      // Wire chain edges from temporally close facts of the same pair
      // (Alg. 3 lines 13-14; chain-based associations only, §4.4). Every
      // entry is checked: end-anchored gaps are not monotone in the window.
      scorer_.ReadChainWindow(fact, added_fact, &window);
      for (const Scorer::ChainWindow::Entry& prev : window) {
        if (prev.delta > detector_options_->timespan_tolerance) continue;
        auto head_id = rules_->FindRule(AtomicRule{cs, prev.relation, co});
        if (!head_id.has_value()) continue;
        RuleEdge edge;
        edge.kind = RuleEdgeKind::kChain;
        edge.head = *head_id;
        edge.tail = added;
        edge.timespans = {prev.delta};
        edge.support = 1;
        rules_->AddEdge(edge);
        ++effects.new_rule_edges;
      }
    }
  }

  // ---- Timespan distribution changes (Alg. 3 line 15) -----------------------
  // Distinct (c_s, c_o) pairs name distinct rules, so sorted, `mapped` is
  // the fact's MapToRules set. It holds the rules admitted above, so their
  // new in-edges take their witness's span a second time (README,
  // "documented deviations").
  std::sort(mapped.begin(), mapped.end());
  for (RuleId rule : mapped) {
    for (RuleEdgeId in_edge : rules_->InEdges(rule)) {
      auto inst = scorer_.TryInstantiate(rules_->edge(in_edge), fact,
                                         added_fact, &window);
      if (!inst.has_value()) continue;
      rules_->AddTimespan(in_edge, inst->delta);
      rules_->mutable_edge(in_edge).support += 1;
      ++effects.timespans_recorded;
    }
  }
  return effects;
}

}  // namespace anot
