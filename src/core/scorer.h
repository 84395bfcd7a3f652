#pragma once

#include <array>
#include <optional>
#include <vector>

#include "core/options.h"
#include "core/witness_scan.h"
#include "mining/category_function.h"
#include "rulegraph/rule_graph.h"
#include "tkg/graph.h"
#include "util/containers.h"
#include "util/lifetime.h"

namespace anot {

/// \brief Anomaly scores for one piece of knowledge (Algorithm 2).
///
/// Higher static score => more likely a conceptual error (Eq. 9).
/// Higher temporal score => more likely a time error (Eq. 10).
/// High combined *support* on a fact absent from the TKG => missing error.
struct Scores {
  double static_score = 0.0;
  double temporal_score = 0.0;
  /// Σ |A_v| over mapped static rules (denominator of Eq. 9).
  double static_support = 0.0;
  /// Σ x over reachable precursors (denominator of Eq. 10).
  double temporal_support = 0.0;
  /// Conflict mass (numerator of the extended Eq. 10): timespan
  /// disagreement of instantiated precursors plus unmet one-shot
  /// precursor expectations. Time errors are *conflicts* with preserved
  /// knowledge (§1), so absence of any expectation contributes nothing.
  double temporal_conflict = 0.0;
  /// Instantiable out-edges (the Eq. 10 extension's numerator term).
  uint32_t out_violations = 0;
  /// False when λ-gated (Alg. 2 line 8) — temporal evidence not gathered.
  bool temporal_evaluated = false;
  /// True when at least one in-edge of a mapped rule was instantiated (at
  /// whatever walk depth it was tried); feeds the monitor's association
  /// counter.
  bool associated = false;

  /// Ranking score for missing-error detection: absent facts with high
  /// support "comply with the patterns" and are likely missing (§4.3.4).
  double missing_support() const {
    return static_support + temporal_support;
  }
};

/// \brief Interpretable byproduct of scoring (§4.3.4, RQ4).
struct Evidence {
  struct MappedRule {
    RuleId rule;
    uint32_t support;
    bool static_selected;
  };
  /// Rules the knowledge maps to (existence evidence of validity).
  std::vector<MappedRule> mapped;

  struct Precursor {
    RuleEdgeId edge;
    RuleId precursor;
    int depth;
    bool instantiated;
    FactId witness;       // instantiating fact, when found
    Timestamp delta;      // observed timespan
    uint32_t theta;       // timespan disagreement count
  };
  /// Walk results: instantiated precursors support occurrence; failed ones
  /// are missing-knowledge prompts.
  std::vector<Precursor> precursors;

  /// Out-edges already instantiated by *earlier* facts: occurrence-order
  /// violations (evidence of a time error).
  std::vector<RuleEdgeId> violations;
};

/// \brief One instantiation of a rule edge against concrete knowledge.
struct Instantiation {
  FactId witness = kInvalidId;
  Timestamp delta = 0;  // tail anchor minus head anchor
  /// Number of preserved timespans τ ∈ T(e) with |τ - delta| <= L. Among
  /// admissible witnesses the one with the most agreement is chosen:
  /// evidence is existential, so the best-supported instantiation decides.
  uint32_t agreements = 0;
};

/// Number of preserved timespans τ ∈ T(e) with |τ - delta| <= tolerance.
/// T(e) is ascending (RuleGraph::ValidateEdge), so the agreeing spans are
/// one run found by two binary searches; the run's bounds saturate at the
/// Timestamp limits instead of overflowing. A negative tolerance agrees
/// with nothing.
uint32_t CountAgreements(const RuleEdge& edge, Timestamp delta,
                         Timestamp tolerance);

/// \brief Derives static and temporal scores by walking the rule graph.
///
/// The scorer borrows (does not own) the TKG, the category function and
/// the rule graph; all three may be advanced by the updater between calls.
class Scorer {
 public:
  Scorer(const TemporalKnowledgeGraph* graph,
         const CategoryFunction* categories, const RuleGraph* rules,
         const DetectorOptions* options);

  /// \brief The chain witnesses of one fact: the admissible facts of its
  /// (s, o) pair history as one ScanRecentFacts call reads them (head
  /// anchor, not after the fact's tail anchor time, one excluded id, the
  /// scan cap), newest first.
  ///
  /// Every chain edge tried on the fact scans this same history; the
  /// edges differ only in the head rule they filter for and the T(e) they
  /// count agreements against. ReadChainWindow, the one filler, reads a
  /// window once; every later chain edge, and the updater's wiring, walks
  /// its entries. A window belongs to one (fact, exclude_witness) pair:
  /// use it only with the fact and exclusion it was read with, and only
  /// while the graph does not change.
  class ChainWindow {
   public:
    struct Entry {
      FactId id;
      RelationId relation;
      Timestamp delta;  // tail anchor minus head anchor
    };
    const Entry* begin() const ANOT_LIFETIME_BOUND { return entries_.data(); }
    const Entry* end() const ANOT_LIFETIME_BOUND { return begin() + size_; }

   private:
    friend class Scorer;
    bool read_ = false;
    uint32_t size_ = 0;
    std::array<Entry, kMaxInstantiationScan> entries_;
  };

  /// Algorithm 2 end to end. `evidence` may be nullptr. Every graph fact
  /// is an admissible witness: the serving path scores a fact before it
  /// is ingested, so the fact never witnesses itself there.
  Scores Score(const Fact& fact, Evidence* evidence = nullptr) const;

  /// Rule nodes the fact maps to (any selection status). Sorted ascending,
  /// each rule once; inline storage covers the typical |C(s)|·|C(o)| fan-out
  /// so the per-arrival mapping allocates nothing.
  small_vec<RuleId, 8> MapToRules(const Fact& fact) const;

  /// Fills `window` with the chain witnesses of `fact`, `exclude_witness`
  /// left out; does nothing once the window has been read.
  void ReadChainWindow(const Fact& fact, FactId exclude_witness,
                       ChainWindow* window) const;

  /// Tries to instantiate `edge` as a precursor of `fact`: is there
  /// concrete prior knowledge matching the edge's head (and mid) pattern
  /// that the new knowledge could follow? A chain edge reads a window of
  /// its own here; callers that try several edges on one fact pass a
  /// shared ChainWindow to the overload below.
  ///
  /// `exclude_witness` names one graph fact (by id) that must not serve
  /// as a witness — the fact itself, when it has already been ingested.
  /// Witness admissibility is decided by identity, never by value
  /// equality: a *distinct* earlier occurrence of an identical recurring
  /// fact is a real precursor and must stay admissible (the same
  /// identity-vs-equality contract as the updater's chain-edge wiring).
  std::optional<Instantiation> TryInstantiate(
      const RuleEdge& edge, const Fact& fact,
      FactId exclude_witness = kInvalidId) const;

  /// The same, with chain edges matched against `chain_window`, which the
  /// first chain edge reads and later ones share: the updater's timespan
  /// step passes one window for all in-edges of one ingested fact.
  std::optional<Instantiation> TryInstantiate(
      const RuleEdge& edge, const Fact& fact, FactId exclude_witness,
      ChainWindow* chain_window) const;

 private:
  bool RuleMatchesFact(const AtomicRule& rule, const Fact& fact) const;
  /// Whether C(s) holds the rule's subject category and C(o) its object
  /// category.
  bool CategoriesMatch(const AtomicRule& rule, EntityId s, EntityId o) const;
  struct EdgeEvidence {
    double support = 0.0;
    double conflict = 0.0;
  };
  /// Per-Score walk state. `edges[e]` records whether edge e was tried
  /// and, if so, whether TryInstantiate succeeded the one time it was, at
  /// whatever depth that happened, so the association flag can be derived
  /// without a second instantiation pass. `chain_window` is read by the
  /// first chain edge the walk tries, at any depth, so a walk that meets
  /// no chain edge reads no pair history.
  enum class EdgeState : uint8_t { kUnvisited, kTried, kInstantiated };
  struct Walk {
    std::vector<EdgeState> edges;
    ChainWindow chain_window;
  };
  EdgeEvidence EvidenceForEdge(RuleEdgeId edge_id, const Fact& fact,
                               int depth, Walk* walk,
                               Evidence* evidence) const;
  /// Evidence weight x of Eq. 10 for one instantiation, per ThetaMode.
  double EvidenceWeight(const RuleEdge& edge,
                        const Instantiation& inst) const;
  double RuleWeight(RuleId rule) const;

  // anot-own: all four are borrowed from the owning AnoT (or a test/bench
  // caller), which heap-holds them precisely so these borrows survive
  // moves of the owner; AnoT recreates its Scorer whenever the structures
  // are swapped (RecreateServingObjects).
  not_null<const TemporalKnowledgeGraph*> graph_;
  not_null<const CategoryFunction*> categories_;
  not_null<const RuleGraph*> rules_;
  not_null<const DetectorOptions*> options_;
};

}  // namespace anot
