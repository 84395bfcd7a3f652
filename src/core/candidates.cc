#include "core/candidates.h"

#include <algorithm>

#include "core/witness_scan.h"
#include "mdl/encoding.h"
#include "util/logging.h"

namespace anot {

namespace {

/// Chain-candidate lookback: how many predecessors in a pair sequence each
/// fact is paired with (a performance cap; the paper enumerates all m < n
/// pairs).
constexpr size_t kMaxPairLag = 8;

/// Triadic-candidate fan-out: how many heads (s, r_m, p) with a co-occurring
/// mid each closing fact is paired with, most recent first. Like
/// kMaxPairLag a performance cap that changes the pool (the paper
/// enumerates every head).
constexpr size_t kMaxTriadicHeads = 8;

/// One edge assertion as the scan met it.
struct EdgeAssertion {
  uint32_t slot;  // index of the edge key in EdgeScan::slots
  FactId tail_fact;
  Timestamp span;
};

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

/// Index of an edge endpoint's rule. Every endpoint is the rule of an
/// existing fact, so GenerateRules has already added it: the rule pool,
/// and with it each edge's model bits, is final before the edge phases.
uint32_t EndpointRule(const CandidatePool& pool, const AtomicRule& rule) {
  const auto it = pool.rule_index.find(rule);
  ANOT_CHECK(it != pool.rule_index.end()) << "edge endpoint is not a rule";
  return it->second;
}

}  // namespace

/// What the edge phases record before any candidate is built: each
/// distinct edge key interned into a slot (first-occurrence order) with
/// its support, and every assertion in scan order.
struct CandidateGenerator::EdgeScan {
  struct Slot {
    uint32_t support = 0;
    FactId last_tail = kInvalidId;
  };
  /// Insertion-ordered, so an entry's position is its slot.
  dense_map<EdgeKey, Slot, EdgeKeyHash> slots;
  std::vector<EdgeAssertion> log;

  /// Interns `key` and logs one assertion, at most one per (edge, tail
  /// fact). A scan emits all of a tail fact's assertions before moving to
  /// the next tail fact, so comparing with the slot's last tail fact is an
  /// exact dedup.
  void Record(const EdgeKey& key, FactId tail_fact, Timestamp span) {
    // Two statements: the insertion may reallocate, so begin() is read
    // only after it.
    const auto it = slots.try_emplace(key).first;
    const auto slot = static_cast<uint32_t>(it - slots.begin());
    Slot& s = it->second;
    if (s.last_tail == tail_fact) return;
    s.last_tail = tail_fact;
    ++s.support;
    log.push_back({slot, tail_fact, span});
  }
};

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

void CandidateGenerator::ScanChainEdges(const CandidatePool& pool,
                                        EdgeScan* scan) const {
  // Deterministic order: sort pair keys.
  std::vector<uint64_t> pair_keys;
  pair_keys.reserve(graph_.pair_sequences().size());
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
      // Walks back from the most recent head, so Record keeps each head
      // relation's most recent occurrence and drops the older ones.
      const size_t lookback = std::min(n, kMaxPairLag);
      for (size_t back = 1; back <= lookback; ++back) {
        const size_t m = n - back;
        const Fact& head_fact = graph_.fact(seq[m]);
        const Timestamp head_time =
            AnchorTime(head_fact, options_.head_anchor);
        if (head_time > tail_time) continue;
        const Timestamp span = tail_time - head_time;
        for (CategoryId cs : subject_cats) {
          for (CategoryId co : object_cats) {
            const uint32_t head_idx =
                EndpointRule(pool, AtomicRule{cs, head_fact.relation, co});
            const uint32_t tail_idx =
                EndpointRule(pool, AtomicRule{cs, tail_fact.relation, co});
            scan->Record(
                {RuleEdgeKind::kChain, head_idx, kInvalidId, tail_idx},
                seq[n], span);
          }
        }
      }
    }
  }
}

void CandidateGenerator::ScanTriadicEdges(const CandidatePool& pool,
                                          EdgeScan* scan) const {
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
    // Endpoint rules, looked up once per closing fact and once per head:
    // tails[i][j] = (cs_i, r_p, ch_j).
    small_vec<uint32_t, 16> tails;
    for (CategoryId cs : cs_list) {
      for (CategoryId ch : ch_list) {
        tails.push_back(EndpointRule(pool, AtomicRule{cs, f.relation, ch}));
      }
    }
    size_t emitted = 0;
    ScanRecentFacts(
        graph_, s_facts->begin(), upper, options_.head_anchor, t, id,
        [&](FactId, const Fact& g1, Timestamp t1) {
          const EntityId p = g1.object;
          if (p == h || p == s) return true;
          // Mid fact (h, r_n, p, t2) co-occurring with g1 within the window.
          const Fact* mid = nullptr;
          Timestamp t2 = kNoTimestamp;
          ScanRecentFacts(
              graph_, graph_.FactsForPair(h, p), options_.head_anchor, t,
              kInvalidId, [&](FactId, const Fact& g2, Timestamp g2_time) {
                if (std::llabs(g2_time - t1) > window) return true;
                mid = &g2;
                t2 = g2_time;
                return false;  // most recent valid mid
              });
          if (mid == nullptr) return true;
          const Timestamp span = t - std::max(t1, t2);

          // heads[i][k] = (cs_i, r_m, cp_k); mids[j][k] = (ch_j, r_n, cp_k).
          const auto& cp_list = categories_.Categories(p);
          const size_t ncp = cp_list.size();
          small_vec<uint32_t, 16> heads;
          for (CategoryId cs : cs_list) {
            for (CategoryId cp : cp_list) {
              heads.push_back(
                  EndpointRule(pool, AtomicRule{cs, g1.relation, cp}));
            }
          }
          small_vec<uint32_t, 16> mids;
          for (CategoryId ch : ch_list) {
            for (CategoryId cp : cp_list) {
              mids.push_back(
                  EndpointRule(pool, AtomicRule{ch, mid->relation, cp}));
            }
          }
          for (size_t i = 0; i < cs_list.size(); ++i) {
            for (size_t j = 0; j < ch_list.size(); ++j) {
              for (size_t k = 0; k < ncp; ++k) {
                scan->Record(
                    {RuleEdgeKind::kTriadic, heads[i * ncp + k],
                     mids[j * ncp + k], tails[i * ch_list.size() + j]},
                    id, span);
              }
            }
          }
          return ++emitted < kMaxTriadicHeads;
        });
  }
}

CandidatePool CandidateGenerator::Generate() const {
  CandidatePool pool;
  GenerateRules(&pool);
  {
    EdgeScan scan;
    ScanChainEdges(pool, &scan);
    if (options_.use_triadic) ScanTriadicEdges(pool, &scan);
    pool.num_generated_edges = scan.slots.size();

    // Admissibility bound. Every endpoint is the rule of an existing fact,
    // so GenerateRules fixed the rule pool and with it each edge's model
    // bits; an edge below k_min can never be admitted (mdl/encoding.h).
    MdlUniverse universe;
    universe.num_entities = static_cast<double>(graph_.num_entities());
    universe.num_candidate_rules = static_cast<double>(pool.rules.size());
    const size_t min_chain = MinAdmissibleEdgeSupport(universe, false);
    const size_t min_triadic = MinAdmissibleEdgeSupport(universe, true);

    // Materialize the surviving slots in slot order, then replay the log
    // in scan order: each survivor's vectors and entropy accumulator see
    // exactly the sequence they would have seen had every edge been built.
    std::vector<uint32_t> edge_of_slot(scan.slots.size(), kInvalidId);
    uint32_t slot = 0;
    for (const auto& [key, state] : scan.slots) {
      const size_t min_support =
          key.kind == RuleEdgeKind::kTriadic ? min_triadic : min_chain;
      const uint32_t support = state.support;
      if (support >= min_support) {
        edge_of_slot[slot] = static_cast<uint32_t>(pool.edges.size());
        EdgeCandidate& e = pool.edges.emplace_back();
        e.kind = key.kind;
        e.head = key.head;
        e.mid = key.mid;
        e.tail = key.tail;
        e.tail_facts.reserve(support);
        e.timespans.reserve(support);
      }
      ++slot;
    }
    const Timestamp bucket =
        std::max<Timestamp>(1, options_.timespan_tolerance);
    for (const EdgeAssertion& a : scan.log) {
      const uint32_t idx = edge_of_slot[a.slot];
      if (idx == kInvalidId) continue;
      EdgeCandidate& e = pool.edges[idx];
      e.tail_facts.push_back(a.tail_fact);
      e.timespans.push_back(a.span);
      e.timespan_entropy.Add(static_cast<uint64_t>(a.span / bucket));
    }
  }

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
