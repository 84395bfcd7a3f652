#pragma once

#include <cstddef>
#include <cstdint>

#include "util/containers.h"
#include "util/math_util.h"
#include "util/status.h"

namespace anot {

/// \brief MDL cost terms for rule-graph model selection (paper §4.2).
///
/// Implementation notes (README "Synthetic presets and documented
/// deviations"):
///  * Code-length denominators are fixed to quantities of the *data* (G)
///    or the candidate universe rather than the evolving model, keeping
///    every candidate's model cost a precomputable constant so the greedy
///    Δ-evaluation stays local. This is the standard trick in MDL pattern
///    mining (Galbrun 2022) and does not change which candidates win.
struct MdlUniverse {
  double num_entities = 0;        // |E|
  double num_relations = 0;       // |R|
  double num_categories = 0;      // |C_E|
  double num_facts = 0;           // |F|
  double num_candidate_rules = 0; // ranking universe for edge endpoints
};

/// First two terms of Eq. 2: bits to transmit the node/edge counts against
/// their candidate upper bounds. Constant across models with the same
/// category function.
double ModelHeaderBits(const MdlUniverse& universe);

/// Eq. 3 — L(v): identify one atomic rule.
/// `subject_cat_count` / `object_cat_count` are the occurrence counts of
/// the rule's categories among fact subjects/objects; the totals are the
/// corresponding occurrence sums. `relation_count` counts the relation's
/// facts.
double AtomicRuleBits(const MdlUniverse& universe, double subject_cat_count,
                      double subject_cat_total, double object_cat_count,
                      double object_cat_total, double relation_count);

/// Eq. 4 — L(e): identify one rule edge (chain: two endpoints; triadic:
/// three). Endpoint codes use the candidate-rule universe.
double RuleEdgeBits(const MdlUniverse& universe, bool triadic);

/// Eq. 8's tier-2 universe U2 = max(2, |E|): the universe for identifying
/// a mapped fact's missing association partner. The builder's ledger, the
/// monitor and the candidate-edge support bound all read U2 from here, and
/// Tier1Universe builds on the same clamp.
double Tier2Universe(double num_entities);

/// Eq. 8's tier-1 universe U1 = Tier2Universe(|E|)^2 * max(1, |R|): the
/// position universe of one timestamp, so U1 >= 4. The builder's ledger
/// and rule ranking, the monitor and the updater's rule admission all
/// read U1 from here. BuildReport records both universes of a build.
double Tier1Universe(double num_entities, double num_relations);

/// The universes NegativeErrorBitsAt accepts: a finite U1 >= 1 and a
/// finite U2 > 0. The ledger and the monitor validate with this one
/// predicate.
Status ValidateNegativeErrorUniverses(double tier1_universe,
                                      double tier2_universe);

/// B = log2 U2: the most that associating one more mapped fact can lower
/// NegativeErrorBitsAt, whatever the counters. Without the clamp, the
/// tier-2 term drops by log2((U2 - associated) / unassociated) <= log2 U2;
/// in the `unassociated + 1` clamp regime it drops by
/// log2((u + 1) / u) <= 1 bit, and U2 >= 2 makes that <= B as well. The
/// tier-1 term does not move. So associating k facts lowers the
/// negative-error cost by at most k * B.
double AssociationGainBoundBits(double tier2_universe);

/// Per-fact slack added to B before it is compared with a model cost:
/// covers the floating-point error of the lgamma-based Log2Binomial
/// differences that CostDelta sums (below 1e-9 bits per fact for U2 up to
/// 2e5, measured on random counter states), a thousandfold over.
inline constexpr double kAssociationGainSlackBits = 1e-6;

/// k_min: the least support at which a rule edge of the given kind can
/// ever shorten the description length. An edge is admitted only when its
/// negative-error saving exceeds RuleEdgeBits plus its (non-negative)
/// assertion bits, and that saving is at most support * B. So an edge
/// with support * (B + kAssociationGainSlackBits) <= RuleEdgeBits is
/// never admitted, under any ledger state. Reads `num_entities` and
/// `num_candidate_rules` of `universe`.
size_t MinAdmissibleEdgeSupport(const MdlUniverse& universe, bool triadic);

/// Per-timestamp negative-error bits, Eq. 8 two-tier realization:
///   tier 1 (unmapped):     log2 C(U1 - mapped, total - mapped)
///   tier 2 (unassociated): log2 C(U2 - associated, mapped - associated)
/// with U1 = Tier1Universe(|E|, |R|) the position universe of one
/// timestamp and U2 = Tier2Universe(|E|) the universe for identifying the
/// missing association partner.
/// U2 << U1 makes explaining *concepts* (atomic rules) strictly more
/// valuable than explaining *order* (rule edges), which realizes the
/// paper's rules-then-edges selection order.
double NegativeErrorBitsAt(double tier1_universe, double tier2_universe,
                           double total, double mapped, double associated);

/// \brief Streaming optimal-prefix-code accounting (Eqs. 6-7).
///
/// For a rule's assertion set, the total subject-side cost is
///   sum_s n_s * (-log2(n_s / |A|)) = |A| log2 |A| - sum_s n_s log2 n_s,
/// maintained incrementally as assertions are added.
///
/// The floating-point value of the incremental sum depends on the Add
/// order. Candidate generation is one serial scan, so every accumulator
/// sees its symbols in scan order and its total is the same for every
/// thread count.
class EntropyAccumulator {
 public:
  void Add(uint64_t symbol);

  /// Total bits = n log2 n - sum_c c log2 c.
  double TotalBits() const;
  uint64_t total() const { return total_; }

 private:
  dense_map<uint64_t, uint64_t> counts_;
  double sum_clog2c_ = 0.0;
  uint64_t total_ = 0;
};

}  // namespace anot
