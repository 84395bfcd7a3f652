#include "mdl/encoding.h"

#include <algorithm>
#include <cmath>

namespace anot {

double ModelHeaderBits(const MdlUniverse& universe) {
  const double rule_universe = std::max(
      2.0, 2.0 * universe.num_categories * universe.num_categories *
               universe.num_relations);
  // Eq. 2: log(2|C_E|^2|R|) + log C(2|C_E|^2|R|, 3).
  return Log2(rule_universe) + Log2Binomial(rule_universe, 3.0);
}

double AtomicRuleBits(const MdlUniverse& universe, double subject_cat_count,
                      double subject_cat_total, double object_cat_count,
                      double object_cat_total, double relation_count) {
  // Eq. 3: log|C_E| + subject-category code + object-category code +
  // relation code + 1 direction bit.
  double bits = Log2(std::max(2.0, universe.num_categories));
  bits += PrefixCodeBits(subject_cat_count, subject_cat_total);
  bits += PrefixCodeBits(object_cat_count, object_cat_total);
  bits += PrefixCodeBits(relation_count, universe.num_facts);
  bits += 1.0;
  return bits;
}

double RuleEdgeBits(const MdlUniverse& universe, bool triadic) {
  // Eq. 4 with the endpoint code fixed to the candidate-rule universe:
  // identifying each endpoint costs log2 of the candidate pool, plus one
  // direction bit.
  const double pool = std::max(2.0, universe.num_candidate_rules);
  return (triadic ? 3.0 : 2.0) * Log2(pool) + 1.0;
}

double Tier2Universe(double num_entities) {
  return std::max(2.0, num_entities);
}

double Tier1Universe(double num_entities, double num_relations) {
  const double e = Tier2Universe(num_entities);
  return e * e * std::max(1.0, num_relations);
}

Status ValidateNegativeErrorUniverses(double tier1_universe,
                                      double tier2_universe) {
  if (!(std::isfinite(tier1_universe) && tier1_universe >= 1.0)) {
    return Status::Internal("tier-1 universe out of range");
  }
  if (!(std::isfinite(tier2_universe) && tier2_universe > 0.0)) {
    return Status::Internal("tier-2 universe out of range");
  }
  return Status::OK();
}

double AssociationGainBoundBits(double tier2_universe) {
  return Log2(tier2_universe);
}

size_t MinAdmissibleEdgeSupport(const MdlUniverse& universe, bool triadic) {
  const double per_fact =
      AssociationGainBoundBits(Tier2Universe(universe.num_entities)) +
      kAssociationGainSlackBits;
  // k < k_min  <=>  k <= floor(bits / per_fact)  <=>  k * per_fact <= bits.
  return static_cast<size_t>(
             std::floor(RuleEdgeBits(universe, triadic) / per_fact)) +
         1;
}

double NegativeErrorBitsAt(double tier1_universe, double tier2_universe,
                           double total, double mapped, double associated) {
  mapped = std::min(mapped, total);
  associated = std::min(associated, mapped);
  const double unmapped = total - mapped;
  const double unassociated = mapped - associated;
  double bits = 0.0;
  if (unmapped > 0) {
    bits += Log2Binomial(std::max(tier1_universe - mapped, unmapped + 1),
                         unmapped);
  }
  if (unassociated > 0) {
    bits += Log2Binomial(
        std::max(tier2_universe - associated, unassociated + 1),
        unassociated);
  }
  return bits;
}

void EntropyAccumulator::Add(uint64_t symbol) {
  uint64_t& count = counts_[symbol];
  if (count > 0) {
    sum_clog2c_ -= static_cast<double>(count) *
                   std::log2(static_cast<double>(count));
  }
  ++count;
  sum_clog2c_ += static_cast<double>(count) *
                 std::log2(static_cast<double>(count));
  ++total_;
}

double EntropyAccumulator::TotalBits() const {
  if (total_ == 0) return 0.0;
  const double n = static_cast<double>(total_);
  return std::max(0.0, n * std::log2(n) - sum_clog2c_);
}

}  // namespace anot
