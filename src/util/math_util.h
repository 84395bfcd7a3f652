#pragma once

namespace anot {

/// MDL encoding-cost primitives (all costs are in bits, i.e. log base 2).
/// These follow the standard two-part MDL toolkit used by KGist-style
/// summarizers: binomial codes for "choose B of A" and optimal prefix
/// codes for categorical draws.

/// log2(x) guarded for x <= 0 (returns 0, used for empty-set costs).
double Log2(double x);

/// log2(n!) via lgamma; exact enough for n up to ~1e15.
double Log2Factorial(double n);

/// log2 C(a, b): bits to identify a b-subset of an a-set.
/// Returns 0 when b <= 0 or b >= a (degenerate choices carry no information).
double Log2Binomial(double a, double b);

/// Optimal prefix-code length -log2(count / total) for a symbol seen
/// `count` times out of `total`. Returns 0 for degenerate inputs.
double PrefixCodeBits(double count, double total);

}  // namespace anot
