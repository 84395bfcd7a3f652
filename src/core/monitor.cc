#include "core/monitor.h"

#include <cmath>

#include "mdl/encoding.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace anot {

Monitor::Monitor(const BuildReport& report)
    : training_bits_(report.negative_bits),
      tier1_universe_(report.tier1_universe),
      tier2_universe_(report.tier2_universe) {}

double Monitor::BucketBits() const {
  return NegativeErrorBitsAt(tier1_universe_, tier2_universe_, bucket_total_,
                             bucket_mapped_, bucket_associated_);
}

void Monitor::CloseBucket() {
  if (!bucket_open_) return;
  online_bits_ += BucketBits();
  bucket_open_ = false;
  bucket_total_ = bucket_mapped_ = bucket_associated_ = 0;
}

void Monitor::Observe(Timestamp t, bool mapped, bool associated) {
  if (bucket_open_ && t != bucket_time_) CloseBucket();
  bucket_open_ = true;
  bucket_time_ = t;
  ++bucket_total_;
  bucket_mapped_ += mapped ? 1 : 0;
  bucket_associated_ += (mapped && associated) ? 1 : 0;
}

void Monitor::Flush() { CloseBucket(); }

bool Monitor::ShouldRefresh() const {
  const double pending = bucket_open_ ? online_bits_ + BucketBits()
                                      : online_bits_;
  return pending > training_bits_;
}

Status Monitor::Validate() const {
  ANOT_RETURN_NOT_OK(
      ValidateNegativeErrorUniverses(tier1_universe_, tier2_universe_));
  if (!(std::isfinite(training_bits_) && training_bits_ >= 0.0)) {
    return Status::Internal("training budget out of range");
  }
  if (!(online_bits_ >= 0.0)) {
    return Status::Internal("accumulated online bits negative");
  }
  if (bucket_associated_ > bucket_mapped_) {
    return Status::Internal(StrFormat("bucket associated %u > mapped %u",
                                      bucket_associated_, bucket_mapped_));
  }
  if (bucket_mapped_ > bucket_total_) {
    return Status::Internal(StrFormat("bucket mapped %u > total %u",
                                      bucket_mapped_, bucket_total_));
  }
  if (bucket_open_) {
    if (bucket_total_ < 1) {
      return Status::Internal("open bucket with no arrivals");
    }
    if (bucket_time_ == kNoTimestamp) {
      return Status::Internal("open bucket with no time");
    }
  } else if (bucket_total_ != 0) {
    return Status::Internal("closed bucket retains counters");
  }
  return Status::OK();
}

void Monitor::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  ANOT_CHECK_OK(Validate());
#endif  // ANOT_VALIDATE
}

}  // namespace anot
