#pragma once

#include "core/builder.h"
#include "tkg/types.h"
#include "util/status.h"

namespace anot {

/// \brief Rule-graph availability monitor (§4.5, Eq. 11).
///
/// Accumulates the negative-error encoding cost L(N_Go) of knowledge that
/// arrived after the offline build and signals a refresh when the rule
/// graph describes unseen data worse than the data it was built on.
class Monitor {
 public:
  /// Adopts the build's budget: its L(N_G) (`negative_bits`) and the two
  /// universes its ledger priced with, so unseen knowledge is priced
  /// exactly as the training data was.
  explicit Monitor(const BuildReport& report);

  /// Feeds one observed arrival. Facts are bucketed per timestamp; a
  /// bucket is priced when the stream advances past it (or on Flush).
  void Observe(Timestamp t, bool mapped, bool associated);

  /// Prices any open bucket (call at end of stream).
  void Flush();

  /// Eq. 11's L(N_Go): the priced buckets plus the open one, so it equals
  /// what a flushed copy of this monitor would report.
  double online_negative_bits() const;

  /// Eq. 11 as printed: true once the unseen data costs more than the
  /// training data did (L(N_Go) > L(N_G)).
  bool ShouldRefresh() const;

  /// Checks the universes (ValidateNegativeErrorUniverses), a finite
  /// non-negative budget, non-negative accumulated bits, and bucket
  /// counter coherence (associated <= mapped <= total; an open bucket,
  /// one with arrivals, has a real timestamp). Returns the first
  /// violation.
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

  double training_bits_;
  double tier1_universe_;
  double tier2_universe_;

  double online_bits_ = 0.0;

  /// The open bucket: open while it holds arrivals (bucket_total_ > 0).
  Timestamp bucket_time_ = kNoTimestamp;
  uint32_t bucket_total_ = 0;
  uint32_t bucket_mapped_ = 0;
  uint32_t bucket_associated_ = 0;
};

}  // namespace anot
