#include "core/candidates.h"

#include <algorithm>

namespace anot {

namespace {

/// Chain-candidate lookback: how many predecessors in a pair sequence each
/// fact is paired with (a performance cap; the paper enumerates all m < n
/// pairs).
constexpr size_t kMaxPairLag = 8;

uint64_t EdgeCandidateKey(RuleEdgeKind kind, uint32_t head, uint32_t mid,
                          uint32_t tail) {
  uint64_t h = internal::HashMix((static_cast<uint64_t>(head) << 32) | tail);
  h = internal::HashMix(h ^ mid);
  return internal::HashMix(
      h ^ (kind == RuleEdgeKind::kTriadic ? 0xABCDu : 0u));
}

/// Index of `rule` in the pool, appending an empty candidate on first
/// sight. Appending may reallocate `pool->rules`, so callers hold indices,
/// not references, across calls.
uint32_t EnsureRule(CandidatePool* pool, const AtomicRule& rule) {
  auto [it, inserted] = pool->rule_index.emplace(
      rule, static_cast<uint32_t>(pool->rules.size()));
  if (inserted) {
    RuleCandidate candidate;
    candidate.rule = rule;
    pool->rules.push_back(std::move(candidate));
  }
  return it->second;
}

/// Records one edge assertion, creating the edge on first sight.
/// `edge_index` maps EdgeCandidateKey to the edge's index in `pool->edges`.
void AddEdgeAssertion(CandidatePool* pool,
                      dense_map<uint64_t, uint32_t>* edge_index,
                      RuleEdgeKind kind, uint32_t head, uint32_t mid,
                      uint32_t tail, FactId tail_fact, Timestamp span,
                      Timestamp tolerance) {
  const uint64_t key = EdgeCandidateKey(kind, head, mid, tail);
  auto [it, inserted] =
      edge_index->emplace(key, static_cast<uint32_t>(pool->edges.size()));
  if (inserted) {
    EdgeCandidate e;
    e.kind = kind;
    e.head = head;
    e.mid = mid;
    e.tail = tail;
    pool->edges.push_back(std::move(e));
  }
  EdgeCandidate& e = pool->edges[it->second];
  e.tail_facts.push_back(tail_fact);
  e.timespans.push_back(span);
  e.timespan_entropy.Add(
      static_cast<uint64_t>(span / std::max<Timestamp>(1, tolerance)));
}

}  // namespace

DeltaHistogram BuildDeltaHistogram(const TemporalKnowledgeGraph& graph,
                                   const std::vector<FactId>& fact_ids) {
  DeltaHistogram h;
  h.facts = fact_ids;
  // Stable sort: groups come out in ascending-timestamp order while facts
  // within a group keep the input order, so the histogram is a pure
  // function of (graph, fact_ids).
  std::stable_sort(h.facts.begin(), h.facts.end(),
                   [&graph](FactId a, FactId b) {
                     return graph.fact(a).time < graph.fact(b).time;
                   });
  h.times.reserve(h.facts.size());
  for (size_t i = 0; i < h.facts.size(); ++i) {
    const Timestamp t = graph.fact(h.facts[i]).time;
    if (h.times.empty() || h.times.back() != t) {
      h.times.push_back(t);
      h.offsets.push_back(static_cast<uint32_t>(i));
    }
  }
  h.offsets.push_back(static_cast<uint32_t>(h.facts.size()));
  h.times.shrink_to_fit();
  return h;
}

CandidateGenerator::CandidateGenerator(const TemporalKnowledgeGraph& graph,
                                       const CategoryFunction& categories,
                                       const DetectorOptions& options,
                                       size_t /*unused*/)
    : graph_(graph), categories_(categories), options_(options) {}

void CandidateGenerator::GenerateRules(CandidatePool* pool) const {
  for (FactId id = 0; id < static_cast<FactId>(graph_.num_facts()); ++id) {
    const Fact& f = graph_.fact(id);
    for (CategoryId cs : categories_.Categories(f.subject)) {
      for (CategoryId co : categories_.Categories(f.object)) {
        const uint32_t idx = EnsureRule(pool, AtomicRule{cs, f.relation, co});
        RuleCandidate& c = pool->rules[idx];
        c.assertions.push_back(id);
        c.subject_entropy.Add(f.subject);
        c.object_entropy.Add(f.object);
      }
    }
  }
}

void CandidateGenerator::GenerateChainEdges(
    CandidatePool* pool, dense_map<uint64_t, uint32_t>* edge_index) const {
  // Deterministic order: sort pair keys.
  std::vector<uint64_t> pair_keys;
  pair_keys.reserve(graph_.pair_sequences().size());
  // anot-lint: ordered-ok keys are collected here and sorted below before
  // any order-dependent use (the canonical collect-then-sort rewrite)
  for (const auto& [key, seq] : graph_.pair_sequences()) {
    if (seq.size() >= 2) pair_keys.push_back(key);
  }
  std::sort(pair_keys.begin(), pair_keys.end());

  for (const uint64_t key : pair_keys) {
    const auto& seq = graph_.pair_sequences().at(key);
    const EntityId s = static_cast<EntityId>(key >> 32);
    const EntityId o = static_cast<EntityId>(key & 0xFFFFFFFFu);
    const auto& subject_cats = categories_.Categories(s);
    const auto& object_cats = categories_.Categories(o);
    if (subject_cats.empty() || object_cats.empty()) continue;

    for (size_t n = 1; n < seq.size(); ++n) {
      const Fact& tail_fact = graph_.fact(seq[n]);
      const Timestamp tail_time = AnchorTime(tail_fact, options_.tail_anchor);
      // Bounded by kMaxPairLag entries, so a linear scan over inline
      // storage beats a hash probe here.
      small_vec<RelationId, 16> seen_heads;
      const size_t lookback = std::min(n, kMaxPairLag);
      for (size_t back = 1; back <= lookback; ++back) {
        const size_t m = n - back;
        const Fact& head_fact = graph_.fact(seq[m]);
        const Timestamp head_time =
            AnchorTime(head_fact, options_.head_anchor);
        if (head_time > tail_time) continue;
        // Most recent occurrence of each head relation only: one
        // assertion per (edge, tail fact).
        if (std::find(seen_heads.begin(), seen_heads.end(),
                      head_fact.relation) != seen_heads.end()) {
          continue;
        }
        seen_heads.push_back(head_fact.relation);
        const Timestamp span = tail_time - head_time;
        for (CategoryId cs : subject_cats) {
          for (CategoryId co : object_cats) {
            const uint32_t head_idx =
                EnsureRule(pool, AtomicRule{cs, head_fact.relation, co});
            const uint32_t tail_idx =
                EnsureRule(pool, AtomicRule{cs, tail_fact.relation, co});
            AddEdgeAssertion(pool, edge_index, RuleEdgeKind::kChain,
                             head_idx, kInvalidId, tail_idx, seq[n], span,
                             options_.timespan_tolerance);
          }
        }
      }
    }
  }
}

void CandidateGenerator::GenerateTriadicEdges(
    CandidatePool* pool, dense_map<uint64_t, uint32_t>* edge_index) const {
  const Timestamp window = options_.timespan_tolerance;
  for (FactId id = 0; id < static_cast<FactId>(graph_.num_facts()); ++id) {
    const Fact& f = graph_.fact(id);  // the closing fact (s, r_p, h, t)
    const EntityId s = f.subject;
    const EntityId h = f.object;
    const Timestamp t = AnchorTime(f, options_.tail_anchor);
    const auto* s_facts = graph_.FactsBySubject(s);
    if (s_facts == nullptr) continue;
    const auto& cs_list = categories_.Categories(s);
    const auto& ch_list = categories_.Categories(h);
    if (cs_list.empty() || ch_list.empty()) continue;

    // Scan s's most recent facts before t for heads (s, r_m, p, t1).
    auto upper = std::upper_bound(
        s_facts->begin(), s_facts->end(), t,
        [this](Timestamp lhs, FactId rhs) {
          return lhs < graph_.fact(rhs).time;
        });
    size_t emitted = 0;
    size_t scanned = 0;
    dense_set<uint64_t> local_edges;
    for (auto rit = std::make_reverse_iterator(upper);
         rit != s_facts->rend() && scanned < kMaxInstantiationScan;
         ++rit, ++scanned) {
      if (emitted >= 8) break;
      const FactId g1_id = *rit;
      if (g1_id == id) continue;
      const Fact& g1 = graph_.fact(g1_id);
      const Timestamp t1 = AnchorTime(g1, options_.head_anchor);
      if (t1 > t) continue;
      const EntityId p = g1.object;
      if (p == h || p == s) continue;
      // Mid fact (h, r_n, p, t2) co-occurring with g1 within the window.
      const auto* hp = graph_.FactsForPair(h, p);
      if (hp == nullptr) continue;
      FactId g2_id = kInvalidId;
      Timestamp t2_best = kNoTimestamp;
      size_t scanned2 = 0;
      for (auto it2 = hp->rbegin();
           it2 != hp->rend() && scanned2 < kMaxInstantiationScan;
           ++it2, ++scanned2) {
        const Fact& g2 = graph_.fact(*it2);
        const Timestamp t2 = AnchorTime(g2, options_.head_anchor);
        if (t2 > t) continue;
        if (std::llabs(t2 - t1) > window) continue;
        g2_id = *it2;
        t2_best = t2;
        break;  // most recent valid mid
      }
      if (g2_id == kInvalidId) continue;
      const Fact& g2 = graph_.fact(g2_id);
      const Timestamp span = t - std::max(t1, t2_best);

      for (CategoryId cs : cs_list) {
        for (CategoryId ch : ch_list) {
          for (CategoryId cp : categories_.Categories(p)) {
            const uint32_t head_idx =
                EnsureRule(pool, AtomicRule{cs, g1.relation, cp});
            const uint32_t mid_idx =
                EnsureRule(pool, AtomicRule{ch, g2.relation, cp});
            const uint32_t tail_idx =
                EnsureRule(pool, AtomicRule{cs, f.relation, ch});
            const uint64_t ekey = EdgeCandidateKey(
                RuleEdgeKind::kTriadic, head_idx, mid_idx, tail_idx);
            // One assertion per (edge, tail fact).
            if (!local_edges.insert(ekey).second) continue;
            AddEdgeAssertion(pool, edge_index, RuleEdgeKind::kTriadic,
                             head_idx, mid_idx, tail_idx, id, span,
                             options_.timespan_tolerance);
          }
        }
      }
      ++emitted;
    }
  }
}

CandidatePool CandidateGenerator::Generate() const {
  CandidatePool pool;
  GenerateRules(&pool);
  dense_map<uint64_t, uint32_t> edge_index;
  GenerateChainEdges(&pool, &edge_index);
  if (options_.use_triadic) GenerateTriadicEdges(&pool, &edge_index);

  if (pool.edges.size() > options_.max_candidate_edges) {
    // Keep the highest-support edges; stable/deterministic.
    std::vector<uint32_t> order(pool.edges.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return pool.edges[a].support() >
                              pool.edges[b].support();
                     });
    order.resize(options_.max_candidate_edges);
    std::sort(order.begin(), order.end());
    std::vector<EdgeCandidate> kept;
    kept.reserve(order.size());
    for (uint32_t i : order) kept.push_back(std::move(pool.edges[i]));
    pool.edges = std::move(kept);
  }
  return pool;
}

}  // namespace anot
