#pragma once

#include <cassert>
#include <optional>
#include <utility>

#include "util/lifetime.h"
#include "util/status.h"

namespace anot {

/// \brief A value-or-Status union, the Result idiom from Arrow.
///
/// A Result<T> holds either a T (status().ok()) or an error Status.
/// Accessing the value of an errored Result is a programming error and
/// asserts in debug builds. Class-level [[nodiscard]]: a dropped Result
/// drops both the value and the error it may carry.
template <typename T>
class ANOT_NODISCARD Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error Status.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires an error status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const ANOT_LIFETIME_BOUND { return status_; }

  const T& value() const& ANOT_LIFETIME_BOUND {
    assert(ok());
    return *value_;
  }
  T& value() & ANOT_LIFETIME_BOUND {
    assert(ok());
    return *value_;
  }
  T&& MoveValue() ANOT_LIFETIME_BOUND {
    assert(ok());
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// \brief Assign the value of a Result expression or propagate its error.
///
/// The temporary's name goes through ANOT_CONCAT so __LINE__ actually
/// expands: the previous direct `_res_##__LINE__` paste produced the
/// literal token `_res___LINE__` for every use, so two expansions in one
/// scope collided (## suppresses argument expansion).
#define ANOT_ASSIGN_OR_RETURN(lhs, expr)                             \
  auto&& ANOT_CONCAT(_anot_res_, __LINE__) = (expr);                 \
  if (!ANOT_CONCAT(_anot_res_, __LINE__).ok())                       \
    return ANOT_CONCAT(_anot_res_, __LINE__).status();               \
  lhs = ANOT_CONCAT(_anot_res_, __LINE__).MoveValue();

}  // namespace anot
