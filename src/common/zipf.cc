#include "common/zipf.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace capd {
namespace {

// Integral of x^-theta over [a, b]: the continuous stand-in for the
// harmonic tail mass sum_{i in (a, b]} i^-theta with half-open rank cells
// [i - 0.5, i + 0.5).
double TailIntegral(double a, double b, double theta) {
  if (theta == 1.0) return std::log(b / a);
  return (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
         (1.0 - theta);
}

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  CAPD_CHECK_GT(n, 0u);
  CAPD_CHECK_GE(theta, 0.0);
  const uint64_t head = std::min(n, kCdfCap);
  cdf_.resize(head);
  double total = 0.0;
  for (uint64_t i = 0; i < head; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  if (n > head) {
    // Analytic mass of ranks [head, n) — 1-based values (head, n], each
    // value v owning the cell [v - 0.5, v + 0.5).
    total += TailIntegral(static_cast<double>(head) + 0.5,
                          static_cast<double>(n) + 0.5, theta);
  }
  total_ = total;
  for (uint64_t i = 0; i < head; ++i) cdf_[i] /= total;

  uint64_t buckets = 1;
  while (buckets < std::min(head, kMaxGuideBuckets)) buckets *= 2;
  guide_.resize(buckets + 1);
  uint64_t rank = 0;
  for (uint64_t j = 0; j <= buckets; ++j) {
    const double edge = static_cast<double>(j) / static_cast<double>(buckets);
    while (rank < head && cdf_[rank] < edge) ++rank;
    guide_[j] = static_cast<uint32_t>(rank);
  }
}

uint64_t ZipfGenerator::Rank(double u) const {
  // u lands in bucket floor(u * buckets), and u == 1 in the last one: the
  // bucket's edges bound lower_bound(cdf_, u) from both sides.
  const uint64_t buckets = guide_.size() - 1;
  const uint64_t bucket = std::min(
      static_cast<uint64_t>(u * static_cast<double>(buckets)), buckets - 1);
  const auto first = cdf_.begin() + guide_[bucket];
  const auto last = cdf_.begin() + guide_[bucket + 1];
  const auto it = std::lower_bound(first, last, u);
  if (it != cdf_.end()) return static_cast<uint64_t>(it - cdf_.begin());
  const uint64_t head = cdf_.size();
  if (n_ <= head) return n_ - 1;  // the original end-of-table fallback
  // Invert the tail integral: find x with mass(head + 0.5 -> x) = m.
  const double a = static_cast<double>(head) + 0.5;
  const double m = std::max(0.0, (u - cdf_.back()) * total_);
  double x;
  if (theta_ == 1.0) {
    x = a * std::exp(m);
  } else {
    const double base = std::pow(a, 1.0 - theta_) + m * (1.0 - theta_);
    // base can graze 0 from rounding when theta > 1 and u -> head_mass + tail.
    x = base > 0.0 ? std::pow(base, 1.0 / (1.0 - theta_))
                   : static_cast<double>(n_);
  }
  // Value v owns [v - 0.5, v + 0.5); rank = v - 1, clamped into the tail.
  const double v = std::floor(x + 0.5);
  const uint64_t rank =
      v < static_cast<double>(head) + 1.0 ? head
                                          : static_cast<uint64_t>(v) - 1;
  return std::min(rank, n_ - 1);
}

}  // namespace capd
