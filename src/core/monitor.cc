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
  online_bits_ = online_negative_bits();
  bucket_total_ = bucket_mapped_ = bucket_associated_ = 0;
}

void Monitor::Observe(Timestamp t, bool mapped, bool associated) {
  if (t != bucket_time_) CloseBucket();
  bucket_time_ = t;
  ++bucket_total_;
  bucket_mapped_ += mapped ? 1 : 0;
  bucket_associated_ += (mapped && associated) ? 1 : 0;
}

void Monitor::Flush() { CloseBucket(); }

double Monitor::online_negative_bits() const {
  return bucket_total_ > 0 ? online_bits_ + BucketBits() : online_bits_;
}

bool Monitor::ShouldRefresh() const {
  return online_negative_bits() > training_bits_;
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
  if (bucket_total_ > 0 && bucket_time_ == kNoTimestamp) {
    return Status::Internal("open bucket with no time");
  }
  return Status::OK();
}

void Monitor::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  ANOT_CHECK_OK(Validate());
#endif  // ANOT_VALIDATE
}

}  // namespace anot
