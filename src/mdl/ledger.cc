#include "mdl/ledger.h"

#include <algorithm>
#include <cmath>

#include "mdl/encoding.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace anot {

NegativeErrorLedger::NegativeErrorLedger(double tier1_universe,
                                         double tier2_universe)
    : tier1_universe_(tier1_universe), tier2_universe_(tier2_universe) {
  ANOT_CHECK_OK(Validate());
}

double NegativeErrorLedger::CostAt(uint32_t total, uint32_t mapped,
                                   uint32_t associated) const {
  return NegativeErrorBitsAt(tier1_universe_, tier2_universe_, total, mapped,
                             associated);
}

void NegativeErrorLedger::SetTimestampTotal(Timestamp t, uint32_t total) {
  Counters& c = per_timestamp_[t];
  total_cost_ -= c.cost;
  c.total = total;
  c.mapped = std::min(c.mapped, total);
  c.associated = std::min(c.associated, c.mapped);
  c.cost = CostAt(c.total, c.mapped, c.associated);
  total_cost_ += c.cost;
}

void NegativeErrorLedger::Apply(Timestamp t, int32_t delta_mapped,
                                int32_t delta_associated) {
  auto it = per_timestamp_.find(t);
  ANOT_CHECK(it != per_timestamp_.end())
      << "Apply on unregistered timestamp " << t;
  Counters& c = it->second;
  total_cost_ -= c.cost;
  const int64_t mapped = static_cast<int64_t>(c.mapped) + delta_mapped;
  const int64_t assoc = static_cast<int64_t>(c.associated) + delta_associated;
  ANOT_CHECK(mapped >= 0 && mapped <= c.total) << "mapped out of range";
  ANOT_CHECK(assoc >= 0 && assoc <= mapped) << "associated out of range";
  c.mapped = static_cast<uint32_t>(mapped);
  c.associated = static_cast<uint32_t>(assoc);
  c.cost = CostAt(c.total, c.mapped, c.associated);
  total_cost_ += c.cost;
}

double NegativeErrorLedger::CostDelta(
    const std::vector<TimestampDelta>& ordered_deltas) const {
  double delta_cost = 0.0;
  for (const TimestampDelta& td : ordered_deltas) {
    auto it = per_timestamp_.find(td.t);
    if (it == per_timestamp_.end()) continue;
    const Counters& c = it->second;
    const int64_t mapped = static_cast<int64_t>(c.mapped) + td.d.mapped;
    const int64_t assoc =
        static_cast<int64_t>(c.associated) + td.d.associated;
    ANOT_CHECK(mapped >= 0 && mapped <= c.total)
        << "previewed mapped out of range";
    ANOT_CHECK(assoc >= 0 && assoc <= mapped)
        << "previewed associated out of range";
    delta_cost += CostAt(c.total, static_cast<uint32_t>(mapped),
                         static_cast<uint32_t>(assoc)) -
                  c.cost;
  }
  return delta_cost;
}

Status NegativeErrorLedger::Validate() const {
  ANOT_RETURN_NOT_OK(
      ValidateNegativeErrorUniverses(tier1_universe_, tier2_universe_));
  double sum = 0.0;
  for (const auto& [t, c] : per_timestamp_) {
    if (c.mapped > c.total) {
      return Status::Internal(StrFormat("timestamp %lld: mapped %u > total %u",
                                        static_cast<long long>(t), c.mapped,
                                        c.total));
    }
    if (c.associated > c.mapped) {
      return Status::Internal(StrFormat(
          "timestamp %lld: associated %u > mapped %u",
          static_cast<long long>(t), c.associated, c.mapped));
    }
    // The cached cost was assigned from this exact pure call, so it must
    // match bit for bit — any difference means a counter moved without a
    // reprice.
    if (c.cost != CostAt(c.total, c.mapped, c.associated)) {
      return Status::Internal(StrFormat("timestamp %lld: cached cost stale",
                                        static_cast<long long>(t)));
    }
    sum += c.cost;
  }
  // total_cost_ is maintained incrementally (+= new - old per mutation),
  // so allow float drift; the summation order over the hash map varies,
  // which the tolerance also absorbs.
  if (!(std::abs(total_cost_ - sum) <= 1e-6 * std::max(1.0, std::abs(sum)))) {
    return Status::Internal(
        StrFormat("total cost %g diverged from per-timestamp sum %g",
                  total_cost_, sum));
  }
  return Status::OK();
}

void NegativeErrorLedger::CheckInvariants() const {
#ifdef ANOT_VALIDATE
  ANOT_CHECK_OK(Validate());
#endif  // ANOT_VALIDATE
}

#ifdef ANOT_VALIDATE
void NegativeErrorLedger::TestOnlyCorruptCountersForValidation(
    Timestamp t, uint32_t total, uint32_t mapped, uint32_t associated) {
  Counters& c = per_timestamp_[t];
  c.total = total;
  c.mapped = mapped;
  c.associated = associated;
}
#endif

}  // namespace anot
