#pragma once

#include <vector>

#include "tkg/types.h"
#include "util/containers.h"
#include "util/status.h"

namespace anot {

/// \brief Incremental bookkeeping of the negative-error cost L(N_G)
/// (Eq. 8, two-tier realization — see mdl/encoding.h).
///
/// The greedy builder asks two questions per candidate: "what is the total
/// cost now?" and "what would it be if these timestamps gained x mapped /
/// y associated facts?". The ledger answers both in O(affected timestamps)
/// by caching each timestamp's cost term.
class NegativeErrorLedger {
 public:
  /// `tier1_universe` is U1 = Tier1Universe(|E|, |R|), the per-timestamp
  /// position universe of Eq. 8; `tier2_universe` is U2 =
  /// Tier2Universe(|E|), which prices an unassociated-but-mapped fact.
  /// Both must pass ValidateNegativeErrorUniverses.
  NegativeErrorLedger(double tier1_universe, double tier2_universe);

  /// Registers the number of facts observed at `t`. Must be called before
  /// mutating that timestamp.
  void SetTimestampTotal(Timestamp t, uint32_t total);

  /// Applies permanent deltas to the mapped/associated counters of `t`.
  void Apply(Timestamp t, int32_t delta_mapped, int32_t delta_associated);

  /// Counter changes of one timestamp.
  struct Delta {
    int32_t mapped = 0;
    int32_t associated = 0;
  };
  struct TimestampDelta {
    Timestamp t = 0;
    Delta d;
  };
  /// Cost change if `ordered_deltas` were applied, without mutating state.
  /// Negative = cost reduction. Accumulation follows the list order, so a
  /// caller that always presents timestamps in ascending order (as the
  /// builder does) gets bit-identical sums regardless of how the list was
  /// produced. Previews enforce the same counter-range invariants as
  /// Apply (a preview that would crash on apply is a programmer error and
  /// fails fast here too); deltas on unregistered timestamps contribute
  /// zero — there are no counters to move, so applying them is
  /// meaningless, not previewable.
  double CostDelta(const std::vector<TimestampDelta>& ordered_deltas) const;

  double total_cost() const { return total_cost_; }

  /// Checks the universes (ValidateNegativeErrorUniverses),
  /// per-timestamp counter ranges (associated <= mapped <= total), each
  /// cached cost bit-identical to a CostAt recompute, and total_cost_
  /// equal to the per-timestamp sum within float tolerance. Returns the
  /// first violation.
  Status Validate() const;

  /// Debug validator (compiled behind ANOT_VALIDATE, no-op otherwise):
  /// ANOT_CHECK-fails when Validate() does.
  void CheckInvariants() const;

#ifdef ANOT_VALIDATE
  /// Test-only back door (exists only under ANOT_VALIDATE): overwrites the
  /// raw counters of `t` without repricing, fabricating the corrupt state
  /// the validator death tests assert on. Never call outside tests.
  void TestOnlyCorruptCountersForValidation(Timestamp t, uint32_t total,
                                            uint32_t mapped,
                                            uint32_t associated);
#endif

 private:
  /// Cost of a single timestamp given explicit counters.
  double CostAt(uint32_t total, uint32_t mapped, uint32_t associated) const;

  struct Counters {
    uint32_t total = 0;
    uint32_t mapped = 0;
    uint32_t associated = 0;
    double cost = 0.0;
  };

  double tier1_universe_;
  double tier2_universe_;
  double total_cost_ = 0.0;
  // dense_map: the greedy builder probes a timestamp's counters once per
  // candidate delta, and CostDelta previews touch a handful of timestamps
  // per call.
  dense_map<Timestamp, Counters> per_timestamp_;
};

}  // namespace anot
