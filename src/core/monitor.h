#pragma once

#include <vector>

#include "core/builder.h"
#include "core/options.h"
#include "tkg/types.h"
#include "util/status.h"

namespace anot {

/// \brief One recorded Observe call: the unit of the monitor handoff the
/// asynchronous refresh swap performs (observations made between the
/// snapshot and the swap are replayed into the fresh monitor so the
/// in-flight accounting window is not lost).
struct MonitorObservation {
  Timestamp time = kNoTimestamp;
  bool mapped = false;
  bool associated = false;
};

/// \brief Rule-graph availability monitor (§4.5, Eq. 11).
///
/// Accumulates the negative-error encoding cost L(N_Go) of knowledge that
/// arrived after the offline build and signals a refresh when the rule
/// graph describes unseen data worse than the data it was built on.
class Monitor {
 public:
  /// Adopts the build's budget: its L(N_G) (`negative_bits`), timestamp
  /// count and the two universes its ledger priced with, so unseen
  /// knowledge is priced exactly as the training data was.
  Monitor(const BuildReport& report, const MonitorOptions& options);

  /// Feeds one observed arrival. Facts are bucketed per timestamp; a
  /// bucket is priced when the stream advances past it (or on Flush).
  void Observe(Timestamp t, bool mapped, bool associated);

  /// Prices any open bucket (call at end of stream).
  void Flush();

  /// Eq. 11 accumulated online negative cost.
  double online_negative_bits() const { return online_bits_; }
  size_t online_timestamps() const { return online_timestamps_; }

  /// True when the refresh condition holds (L(N_Go) > L(N_G), or the
  /// per-timestamp mean exceeds the training mean in kPerTimestamp mode).
  bool ShouldRefresh() const;

  /// Feeds recorded observations in order (the async-swap handoff: a
  /// fresh monitor is built for the new budget and pricing universes,
  /// then Replays the window observed since the snapshot). Equivalent to
  /// calling Observe per entry; the final bucket is left open exactly as
  /// live observation would.
  void Replay(const std::vector<MonitorObservation>& observations);

  /// Checks the universes (ValidateNegativeErrorUniverses), a finite
  /// non-negative budget, non-negative accumulated bits, and bucket
  /// counter coherence (associated <= mapped <= total; a closed bucket
  /// holds zeroed counters, an open one at least one arrival and a real
  /// timestamp). Returns the first violation.
  Status Validate() const;

  /// Debug validator (compiled behind ANOT_VALIDATE, no-op otherwise):
  /// ANOT_CHECK-fails when Validate() does.
  void CheckInvariants() const;

 private:
  /// The checkpoint codec (io/checkpoint.h) persists the accumulation and
  /// bucket state; the budget and universes come back from the build
  /// report. Its field list for the scalars below lives in the codec.
  friend class Checkpoint;

  /// Eq. 8 cost of the open bucket.
  double BucketBits() const;
  void CloseBucket();

  MonitorOptions options_;
  double training_bits_;
  size_t training_timestamps_;
  double tier1_universe_;
  double tier2_universe_;

  double online_bits_ = 0.0;
  size_t online_timestamps_ = 0;

  bool bucket_open_ = false;
  Timestamp bucket_time_ = kNoTimestamp;
  uint32_t bucket_total_ = 0;
  uint32_t bucket_mapped_ = 0;
  uint32_t bucket_associated_ = 0;
};

}  // namespace anot
