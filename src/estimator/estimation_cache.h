// Cross-round estimation cache: the advisor's greedy/backtracking
// enumeration re-prices overlapping candidate sets round after round
// (initial pool, merged pool, staged baselines), and every re-estimate of
// an already-priced index is pure waste — size estimation dominates
// advisor runtime (Figure 11). Entries are SampleCF results keyed by
// IndexDef signature + the exact sampling fraction, so a hit reproduces what
// a fresh SampleCF at that fraction would have produced.
//
// Optionally memory-bounded: with a capacity, entries are evicted in
// least-recently-used order (lookups and inserts refresh recency), so
// hundred-thousand-candidate workloads cannot grow the cache without
// limit. Capacity 0 (the default) means unbounded.
#ifndef CAPD_ESTIMATOR_ESTIMATION_CACHE_H_
#define CAPD_ESTIMATOR_ESTIMATION_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "estimator/sample_cf.h"

namespace capd {

class EstimationCache {
 public:
  // capacity_bytes bounds the (approximate) memory footprint; 0 = no bound.
  explicit EstimationCache(size_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes) {}

  // Estimate of `signature` produced at sampling fraction f, if cached.
  std::optional<SampleCfResult> Lookup(const std::string& signature,
                                       double f) const;

  void Insert(const std::string& signature, double f, const SampleCfResult& r);

  // Approximate bytes currently held (keys + results + container overhead).
  size_t charged_bytes() const;

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  struct Entry {
    SampleCfResult result;
    // Position in lru_; stable across splices.
    std::list<std::string>::iterator lru;
  };

  static std::string Key(const std::string& signature, double f);
  static size_t EntryBytes(const std::string& key);

  // All require mu_ held.
  void TouchLocked(const Entry& entry) const;
  void EvictOverCapacityLocked();

  const size_t capacity_bytes_;
  mutable std::mutex mu_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  size_t bytes_ = 0;
  // Front = most recently used. Mutable: lookups refresh recency.
  mutable std::list<std::string> lru_;
  std::map<std::string, Entry> entries_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_ESTIMATION_CACHE_H_
