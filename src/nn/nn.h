#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/lifetime.h"
#include "util/random.h"

namespace anot {

/// \brief Dense embedding table with AdaGrad updates.
///
/// The learned baselines need nothing fancier: lookup, accumulate
/// gradient, adaptive step. Rows grow lazily so online streams with new
/// entities do not crash (new rows score near zero until trained).
class EmbeddingTable {
 public:
  EmbeddingTable(size_t rows, size_t dim, double init_scale, Rng* rng);

  size_t dim() const { return dim_; }
  size_t rows() const { return rows_; }

  /// Pointer to the row (grows the table when id >= rows()).
  float* Row(size_t id) ANOT_LIFETIME_BOUND;
  const float* Row(size_t id) const ANOT_LIFETIME_BOUND;

  /// AdaGrad: w -= lr * g / sqrt(acc + eps), acc += g^2.
  void Update(size_t id, const std::vector<float>& grad, float lr);

 private:
  void Grow(size_t rows);

  size_t rows_;
  size_t dim_;
  double init_scale_;
  // anot-own: the baseline model that constructs this table owns the Rng
  // and destroys the table first (member order in the owner).
  Rng* rng_;
  std::vector<float> data_;
  std::vector<float> accum_;
};

inline float Sigmoid(float x) {
  if (x >= 0) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

/// \brief Two-layer MLP with tanh hidden units and AdaGrad training
/// (used by the TADDY-lite baseline).
class Mlp {
 public:
  Mlp(size_t in_dim, size_t hidden_dim, uint64_t seed);

  /// Forward pass; returns the logit.
  float Forward(const std::vector<float>& input) const;

  /// One BCE step: label in {0, 1}. Returns the loss.
  float TrainStep(const std::vector<float>& input, float label, float lr);

 private:
  size_t in_dim_;
  size_t hidden_dim_;
  std::vector<float> w1_, b1_, w2_;
  float b2_ = 0;
  std::vector<float> acc_w1_, acc_b1_, acc_w2_;
  float acc_b2_ = 0;
};

}  // namespace anot
