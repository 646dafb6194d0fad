#include "common/math_util.h"

#include <cmath>

#include "common/logging.h"

namespace capd {

uint64_t RoundedFraction(uint64_t n, double f) {
  if (f <= 0.0) return 0;
  if (f >= 1.0) return n;
  if (n <= (1ull << 52)) {
    // Exact in double; identical to the historical n * f + 0.5 truncation,
    // which every pinned sample (and therefore every golden report)
    // depends on.
    return static_cast<uint64_t>(static_cast<double>(n) * f + 0.5);
  }
  // Near 2^53 and above, double drops low bits of n and the + 0.5 can be
  // absorbed entirely; x87 long double carries a 64-bit mantissa (and on
  // quad-precision platforms more), which covers uint64 exactly.
  const long double p =
      static_cast<long double>(n) * static_cast<long double>(f) + 0.5L;
  if (p >= static_cast<long double>(n)) return n;
  return static_cast<uint64_t>(p);
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double NormalProbBetween(double mean, double stddev, double lo, double hi) {
  CAPD_CHECK_LE(lo, hi);
  if (stddev <= 0.0) return (mean >= lo && mean <= hi) ? 1.0 : 0.0;
  return NormalCdf((hi - mean) / stddev) - NormalCdf((lo - mean) / stddev);
}

double ProbWithinTolerance(double bias, double variance, double e) {
  CAPD_CHECK_GT(e, 0.0);
  CAPD_CHECK_GE(variance, 0.0);
  const double mean = 1.0 + bias;
  const double stddev = std::sqrt(variance);
  return NormalProbBetween(mean, stddev, 1.0 / (1.0 + e), 1.0 + e);
}

double FitLogCoefficient(const std::vector<double>& xs,
                         const std::vector<double>& ys) {
  CAPD_CHECK_EQ(xs.size(), ys.size());
  CAPD_CHECK(!xs.empty());
  // Minimize sum (y_i - c*ln(x_i))^2  =>  c = sum(y ln x) / sum(ln x)^2.
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double lx = std::log(xs[i]);
    num += ys[i] * lx;
    den += lx * lx;
  }
  CAPD_CHECK_GT(den, 0.0);
  return num / den;
}

double FitLinearThroughOrigin(const std::vector<double>& xs,
                              const std::vector<double>& ys) {
  CAPD_CHECK_EQ(xs.size(), ys.size());
  CAPD_CHECK(!xs.empty());
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    num += ys[i] * xs[i];
    den += xs[i] * xs[i];
  }
  CAPD_CHECK_GT(den, 0.0);
  return num / den;
}

double Mean(const std::vector<double>& xs) {
  CAPD_CHECK(!xs.empty());
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  const double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

}  // namespace capd
