// Zipfian value generator used for the skewed datasets (TPC-H Z=1, Z=3 in
// Appendix C of the paper).
#ifndef CAPD_COMMON_ZIPF_H_
#define CAPD_COMMON_ZIPF_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace capd {

// Draws ranks in [0, n) with probability proportional to 1/(rank+1)^theta.
// theta == 0 degenerates to the uniform distribution.
//
// Memory is O(min(n, kCdfCap)), never O(n): the CDF table is materialized
// only for the first kCdfCap ranks; above the cap the mass comes from the
// Euler-Maclaurin integral approximation of the harmonic tail and draws
// landing there invert it analytically. For n <= kCdfCap (every seed-era
// workload) construction and draws are bit-identical to the original
// uncapped table, so the pinned goldens and bench_service_load's seeded
// counters are unchanged. Each Next() consumes exactly one uniform double
// from the engine in either regime.
//
// A guide table of up to kMaxGuideBuckets equal-width buckets over [0, 1)
// records, for each bucket edge e, lower_bound(cdf, e). A draw u then
// searches only its own bucket's ranks, and the result is exactly the rank
// a lower_bound over the whole table gives.
class ZipfGenerator {
 public:
  // Ranks materialized exactly. 2^20 doubles = 8 MiB per generator, the
  // fixed ceiling a 100M-key generator costs too.
  static constexpr uint64_t kCdfCap = 1ull << 20;
  // A power of two, so u * buckets is exact and so is each bucket edge.
  static constexpr uint64_t kMaxGuideBuckets = 4096;

  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Random* rng) const { return Rank(rng->NextDouble()); }

  // The rank a uniform draw u in [0, 1] maps to.
  uint64_t Rank(double u) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  // P(rank < min(n, kCdfCap)): 1 for uncapped generators, < 1 when an
  // analytic tail exists. Exposed for the tail-sanity tests.
  double head_mass() const { return cdf_.empty() ? 1.0 : cdf_.back(); }

 private:
  uint64_t n_;
  double theta_;
  std::vector<double> cdf_;  // cumulative probabilities, size min(n, kCdfCap)
  double total_ = 0.0;       // unnormalized mass over all n ranks
  // guide_[j] = lower_bound(cdf_, j / buckets) for j in [0, buckets].
  std::vector<uint32_t> guide_;
};

}  // namespace capd

#endif  // CAPD_COMMON_ZIPF_H_
