// Cross-round estimation cache: the advisor's greedy/backtracking
// enumeration re-prices overlapping candidate sets round after round
// (initial pool, merged pool, staged baselines), and every re-estimate of
// an already-priced index is pure waste — size estimation dominates
// advisor runtime (Figure 11). Entries are SampleCF results keyed by
// IndexDef signature + the exact sampling fraction, so a hit reproduces what
// a fresh SampleCF at that fraction would have produced. Entries are never
// evicted: one per sampled leaf an engine has priced.
#ifndef CAPD_ESTIMATOR_ESTIMATION_CACHE_H_
#define CAPD_ESTIMATOR_ESTIMATION_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "estimator/sample_cf.h"

namespace capd {

class EstimationCache {
 public:
  // Estimate of `signature` produced at sampling fraction f, if cached.
  std::optional<SampleCfResult> Lookup(const std::string& signature,
                                       double f) const;

  void Insert(const std::string& signature, double f, const SampleCfResult& r);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  mutable std::mutex mu_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  // Keyed by (signature, bits of f).
  std::map<std::pair<std::string, uint64_t>, SampleCfResult> entries_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_ESTIMATION_CACHE_H_
