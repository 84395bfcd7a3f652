#include "rulegraph/rule_graph.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace anot {

namespace {
const RuleGraph::EdgeList kNoEdges;

/// Orders rule-index entries by object category.
constexpr auto kByObjectCategory = [](const auto& keyed, CategoryId c) {
  return keyed.object_category < c;
};
}  // namespace

Status AtomicRule::ValidateIds(size_t num_categories,
                               size_t num_relations) const {
  if (subject_category >= num_categories ||
      object_category >= num_categories) {
    return Status::InvalidArgument("rule references an unknown category");
  }
  if (relation >= num_relations) {
    return Status::InvalidArgument("rule references an unknown relation");
  }
  return Status::OK();
}

uint64_t RuleGraph::RunKey(RelationId relation, CategoryId subject_category) {
  return (static_cast<uint64_t>(relation) << 32) | subject_category;
}

const RuleGraph::KeyedRule* RuleGraph::LowerBound(
    const RuleRun& run, CategoryId object_category) const {
  const KeyedRule* first = keyed_rules_.data() + run.begin;
  return std::lower_bound(first, first + run.size, object_category,
                          kByObjectCategory);
}

RuleId RuleGraph::AddRule(const AtomicRule& rule, bool static_selected) {
  RuleRun& run = rule_runs_.try_emplace(RunKey(rule.relation,
                                               rule.subject_category))
                     .first->second;
  const KeyedRule* pos = LowerBound(run, rule.object_category);
  size_t at = static_cast<size_t>(pos - keyed_rules_.data());
  if (at < run.begin + run.size &&
      pos->object_category == rule.object_category) {
    const RuleId id = pos->rule;
    if (static_selected && !static_selected_[id]) {
      static_selected_[id] = true;
      ++num_static_;
    }
    return id;
  }
  const RuleId id = static_cast<RuleId>(rules_.size());
  rules_.push_back(rule);
  support_.push_back(0);
  static_selected_.push_back(static_selected);
  recurrent_.push_back(false);
  num_static_ += static_selected ? 1 : 0;
  in_edges_.emplace_back();
  out_edges_.emplace_back();

  if (run.size == run.capacity) {
    const size_t begin = keyed_rules_.size();
    const size_t capacity = std::max<size_t>(1, 2 * size_t{run.capacity});
    ANOT_CHECK(begin + capacity < kInvalidId) << "rule index store full";
    keyed_rules_.resize(begin + capacity);
    std::copy_n(keyed_rules_.begin() + run.begin, run.size,
                keyed_rules_.begin() + begin);
    at += begin - run.begin;
    run.begin = static_cast<uint32_t>(begin);
    run.capacity = static_cast<uint32_t>(capacity);
  }
  const auto first = keyed_rules_.begin() + run.begin;
  std::copy_backward(keyed_rules_.begin() + at, first + run.size,
                     first + run.size + 1);
  keyed_rules_[at] = KeyedRule{rule.object_category, id};
  ++run.size;
  return id;
}

std::optional<RuleId> RuleGraph::FindRule(const AtomicRule& rule) const {
  auto it = rule_runs_.find(RunKey(rule.relation, rule.subject_category));
  if (it == rule_runs_.end()) return std::nullopt;
  const RuleRun& run = it->second;
  const KeyedRule* pos = LowerBound(run, rule.object_category);
  if (pos == keyed_rules_.data() + run.begin + run.size ||
      pos->object_category != rule.object_category) {
    return std::nullopt;
  }
  return pos->rule;
}

void RuleGraph::AppendRules(CategoryId subject_category, RelationId relation,
                            const std::vector<CategoryId>& object_categories,
                            small_vec<RuleId, 8>* out) const {
  auto it = rule_runs_.find(RunKey(relation, subject_category));
  if (it == rule_runs_.end()) return;
  const RuleRun& run = it->second;
  const KeyedRule* pos = keyed_rules_.data() + run.begin;
  const KeyedRule* end = pos + run.size;
  // Both lists ascend, so each search resumes where the previous stopped.
  for (CategoryId co : object_categories) {
    pos = std::lower_bound(pos, end, co, kByObjectCategory);
    if (pos == end) return;
    if (pos->object_category == co) out->push_back(pos->rule);
  }
}

std::optional<RuleEdgeId> RuleGraph::FindEdge(RuleEdgeKind kind, RuleId head,
                                              RuleId mid,
                                              RuleId tail) const {
  auto it = edge_index_.find(EdgeKey{kind, head, mid, tail});
  if (it == edge_index_.end()) return std::nullopt;
  return it->second;
}

Status RuleGraph::ValidateEdge(const RuleEdge& edge) const {
  if (edge.head >= rules_.size() || edge.tail >= rules_.size()) {
    return Status::InvalidArgument("edge references unknown rule");
  }
  if (edge.kind == RuleEdgeKind::kChain && edge.mid != kInvalidId) {
    return Status::InvalidArgument("chain edge has a mid rule");
  }
  if (edge.kind == RuleEdgeKind::kTriadic && edge.mid >= rules_.size()) {
    return Status::InvalidArgument("triadic edge lacks a mid rule");
  }
  if (!std::is_sorted(edge.timespans.begin(), edge.timespans.end())) {
    return Status::InvalidArgument("edge timespans unsorted");
  }
  return Status::OK();
}

RuleEdgeId RuleGraph::AddEdge(const RuleEdge& edge) {
  const EdgeKey key{edge.kind, edge.head, edge.mid, edge.tail};
  auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    // Merge: extend timespans and support of the existing edge.
    RuleEdge& existing = edges_[it->second];
    for (Timestamp s : edge.timespans) AddTimespan(it->second, s);
    existing.support += edge.support;
    return it->second;
  }
  const RuleEdgeId id = static_cast<RuleEdgeId>(edges_.size());
  edges_.push_back(edge);
  std::sort(edges_.back().timespans.begin(), edges_.back().timespans.end());
  ANOT_CHECK_OK(ValidateEdge(edges_.back()));
  edge_index_.emplace(key, id);
  in_edges_[edge.tail].push_back(id);
  out_edges_[edge.head].push_back(id);
  if (edge.kind == RuleEdgeKind::kTriadic && edge.mid != edge.head) {
    out_edges_[edge.mid].push_back(id);
  }
  return id;
}

const RuleGraph::EdgeList& RuleGraph::InEdges(RuleId rule) const {
  if (rule >= in_edges_.size()) return kNoEdges;
  return in_edges_[rule];
}

const RuleGraph::EdgeList& RuleGraph::OutEdges(RuleId rule) const {
  if (rule >= out_edges_.size()) return kNoEdges;
  return out_edges_[rule];
}

void RuleGraph::AddTimespan(RuleEdgeId id, Timestamp span) {
  auto& spans = edges_[id].timespans;
  spans.insert(std::upper_bound(spans.begin(), spans.end(), span), span);
}

std::string RuleGraph::ToString() const {
  std::string out = StrFormat("RuleGraph: %zu rules (%zu static), %zu edges\n",
                              rules_.size(), num_static_, edges_.size());
  for (RuleId id = 0; id < rules_.size(); ++id) {
    const AtomicRule& r = rules_[id];
    out += StrFormat("  v%u: (c%u, r%u, c%u) |A|=%u%s\n", id,
                     r.subject_category, r.relation, r.object_category,
                     support_[id], static_selected_[id] ? "" : " [temporal]");
  }
  for (RuleEdgeId id = 0; id < edges_.size(); ++id) {
    const RuleEdge& e = edges_[id];
    if (e.kind == RuleEdgeKind::kChain) {
      out += StrFormat("  e%u: v%u -> v%u |T|=%zu |A|=%u\n", id, e.head,
                       e.tail, e.timespans.size(), e.support);
    } else {
      out += StrFormat("  e%u: (v%u, v%u) -> v%u |T|=%zu |A|=%u\n", id,
                       e.head, e.mid, e.tail, e.timespans.size(), e.support);
    }
  }
  return out;
}

Status RuleGraph::Validate() const {
  const size_t n = rules_.size();
  if (support_.size() != n || static_selected_.size() != n ||
      recurrent_.size() != n || in_edges_.size() != n ||
      out_edges_.size() != n) {
    return Status::Internal("rule parallel arrays diverged");
  }
  for (RuleEdgeId id = 0; id < edges_.size(); ++id) {
    const Status st = ValidateEdge(edges_[id]);
    if (!st.ok()) {
      return Status::Internal(StrFormat("edge %u: %s", id,
                                        st.message().c_str()));
    }
  }
  return Status::OK();
}

void RuleGraph::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  ANOT_CHECK_OK(Validate());
  const size_t n = rules_.size();
  size_t indexed = 0;
  for (const auto& [key, run] : rule_runs_) {
    ANOT_CHECK(run.size <= run.capacity &&
               size_t{run.begin} + run.capacity <= keyed_rules_.size())
        << "rule run out of the store";
    for (uint32_t i = 0; i < run.size; ++i) {
      const KeyedRule& k = keyed_rules_[run.begin + i];
      ANOT_CHECK(k.rule < n &&
                 RunKey(rules_[k.rule].relation,
                        rules_[k.rule].subject_category) == key &&
                 rules_[k.rule].object_category == k.object_category)
          << "rule index entry does not match rule " << k.rule;
      ANOT_CHECK(i == 0 || keyed_rules_[run.begin + i - 1].object_category <
                               k.object_category)
          << "rule run not strictly ascending";
    }
    indexed += run.size;
  }
  ANOT_CHECK(indexed == n) << "rule index size diverged";
  for (RuleId id = 0; id < n; ++id) {
    const std::optional<RuleId> found = FindRule(rules_[id]);
    ANOT_CHECK(found.has_value() && *found == id)
        << "rule index does not round-trip for rule " << id;
  }
  size_t want_static = 0;
  for (RuleId id = 0; id < n; ++id) want_static += static_selected_[id] ? 1 : 0;
  ANOT_CHECK(num_static_ == want_static) << "static rule count diverged";

  ANOT_CHECK(edge_index_.size() == edges_.size())
      << "edge index size diverged";
  std::vector<std::vector<RuleEdgeId>> want_in(n);
  std::vector<std::vector<RuleEdgeId>> want_out(n);
  for (RuleEdgeId id = 0; id < edges_.size(); ++id) {
    const RuleEdge& e = edges_[id];
    auto indexed = edge_index_.find(EdgeKey{e.kind, e.head, e.mid, e.tail});
    ANOT_CHECK(indexed != edge_index_.end() && indexed->second == id)
        << "edge index does not round-trip for edge " << id;
    want_in[e.tail].push_back(id);
    want_out[e.head].push_back(id);
    if (e.kind == RuleEdgeKind::kTriadic && e.mid != e.head) {
      want_out[e.mid].push_back(id);
    }
  }
  // AddEdge appends adjacency entries in edge-id order, so the recomputed
  // lists must match exactly (content and order).
  for (RuleId id = 0; id < n; ++id) {
    ANOT_CHECK(in_edges_[id] == want_in[id])
        << "in-edge adjacency diverged for rule " << id;
    ANOT_CHECK(out_edges_[id] == want_out[id])
        << "out-edge adjacency diverged for rule " << id;
  }
#endif  // ANOT_VALIDATE
}

}  // namespace anot
