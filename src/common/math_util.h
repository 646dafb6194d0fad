// Statistical helpers used by the size-estimation error model (Section 5.1):
// normal CDF, probability that a normally-distributed relative estimate lies
// within a tolerance band, Goodman's variance of a product of independent
// random variables, and least-squares fits used by the Appendix-C analysis.
#ifndef CAPD_COMMON_MATH_UTIL_H_
#define CAPD_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace capd {

// round(n * f) for a fraction f in [0, 1], overflow- and precision-safe for
// the whole uint64 range. For n <= 2^52 this is bit-identical to the
// classic static_cast<uint64_t>(n * f + 0.5); above that (where double
// cannot even represent n exactly and n * f + 0.5 silently loses the
// rounding bit) it switches to extended precision and clamps to n. f < 0
// maps to 0 and f > 1 to n, so callers need no pre-clamping.
uint64_t RoundedFraction(uint64_t n, double f);

// FNV-1a: a fixed, platform-independent string hash used wherever a string
// must map to a reproducible seed (per-key sample seeds, per-table stats
// seeds). Never change this: sample contents are pinned by it.
uint64_t Fnv1a64(const std::string& s);

// The exact bits of a sampling fraction, for cache keys: fractions that
// merely print alike never share an entry.
uint64_t FractionBits(double f);

// Standard normal CDF.
double NormalCdf(double z);

// P(lo <= X <= hi) for X ~ N(mean, stddev^2). Degenerates correctly for
// stddev == 0 (point mass at mean).
double NormalProbBetween(double mean, double stddev, double lo, double hi);

// The paper's accuracy criterion: X is the estimated/true size ratio with
// E[X] = 1 + bias and Var[X] = variance; returns P(1/(1+e) <= X <= 1+e).
double ProbWithinTolerance(double bias, double variance, double e);

// Least-squares fit of y = c * ln(x) through the data (no intercept), the
// form used in Table 2 of the paper. Returns c.
double FitLogCoefficient(const std::vector<double>& xs,
                         const std::vector<double>& ys);

// Least-squares fit of y = c * x through the origin (Table 3 form).
double FitLinearThroughOrigin(const std::vector<double>& xs,
                              const std::vector<double>& ys);

// Sample mean and (population) standard deviation.
double Mean(const std::vector<double>& xs);
double StdDev(const std::vector<double>& xs);

}  // namespace capd

#endif  // CAPD_COMMON_MATH_UTIL_H_
