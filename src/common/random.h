// Deterministic, seedable random number generation. All randomized code in
// the library takes a Random* so experiments are exactly reproducible.
#ifndef CAPD_COMMON_RANDOM_H_
#define CAPD_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/logging.h"

namespace capd {

// Thin wrapper over a fixed-algorithm engine (mt19937_64) so the stream of
// values is stable across platforms and standard-library versions. The
// draws are inline so that a constant bound at the call site compiles to a
// multiply instead of a 64-bit divide.
class Random {
 public:
  explicit Random(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t Next(uint64_t bound) {
    CAPD_CHECK_GT(bound, 0u);
    // Rejection-free modulo is fine for our (non-cryptographic) purposes.
    return engine_() % bound;
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    CAPD_CHECK_LE(lo, hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next(span));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    // 53-bit mantissa for uniformity.
    return static_cast<double>(engine_() >> 11) * (1.0 / 9007199254740992.0);
  }

  // True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Returns a uniformly random subset of indices [0, n) of size k (k <= n),
  // in increasing order. Used by the samplers.
  std::vector<uint64_t> SampleIndices(uint64_t n, uint64_t k);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace capd

#endif  // CAPD_COMMON_RANDOM_H_
