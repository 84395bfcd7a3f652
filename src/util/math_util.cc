#include "util/math_util.h"

#include <cmath>

namespace anot {

namespace {
constexpr double kLn2 = 0.6931471805599453;
}

double Log2(double x) {
  if (x <= 0.0) return 0.0;
  return std::log2(x);
}

double Log2Factorial(double n) {
  if (n <= 1.0) return 0.0;
#if defined(__GLIBC__) || defined(__APPLE__)
  // std::lgamma writes the global `signgam` — a data race when pool
  // workers (or the background rebuild) price costs concurrently. The
  // reentrant variant returns the identical value for positive inputs.
  int sign = 0;
  return ::lgamma_r(n + 1.0, &sign) / kLn2;
#else
  return std::lgamma(n + 1.0) / kLn2;
#endif
}

double Log2Binomial(double a, double b) {
  if (b <= 0.0 || b >= a) return 0.0;
  return Log2Factorial(a) - Log2Factorial(b) - Log2Factorial(a - b);
}

double PrefixCodeBits(double count, double total) {
  if (count <= 0.0 || total <= 0.0 || count >= total) return 0.0;
  return -std::log2(count / total);
}

}  // namespace anot
