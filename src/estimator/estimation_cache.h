// Cross-round estimation cache: the advisor re-prices overlapping
// candidate sets request after request and round after round (initial
// pool, merged pool, staged baselines), and every re-estimate of an
// already-priced batch or index is pure waste — size estimation dominates
// advisor runtime (Figure 11). It memoizes at two levels:
//
//   - Batches: a whole SizeEstimator::EstimateAll result (estimates,
//     chosen fraction, plan cost, sampled and deduced counts), keyed by
//     every input the batch reads (SizeEstimator builds the key). Requests
//     that differ only in budget or strategy plan identical batches; a hit
//     builds no graph, probes no fraction and composes no deduction.
//   - Leaves: SampleCF results keyed by IndexDef signature + the identity
//     of the object the index is on (SampleSource::ObjectIdentity: a base
//     table's name, an MV's exact definition) + the exact sampling
//     fraction, so a batch that misses still skips the sample index
//     builds earlier batches ran.
//
// Both levels hold pure functions of their keys, given the one Database
// and sample seed of the engine the cache belongs to (samples are seeded
// per cache key), so a hit reproduces what recomputing would have produced
// to the bit. The Database must not change while the cache is in use: a
// base table is keyed by its name alone. Entries are never evicted: one
// per distinct batch and one per sampled leaf an engine has priced.
#ifndef CAPD_ESTIMATOR_ESTIMATION_CACHE_H_
#define CAPD_ESTIMATOR_ESTIMATION_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "estimator/sample_cf.h"

namespace capd {

// The result of one SizeEstimator::EstimateAll batch.
struct EstimationBatch {
  std::map<std::string, SampleCfResult> estimates;  // by IndexDef signature
  double chosen_f = 0.0;
  double total_cost_pages = 0.0;
  size_t num_sampled = 0;
  size_t num_deduced = 0;
};

class EstimationCache {
 public:
  // SampleCF estimate of `signature`, on the object whose identity is
  // `identity`, produced at sampling fraction f, if cached.
  std::optional<SampleCfResult> Lookup(const std::string& signature,
                                       const std::string& identity,
                                       double f) const;

  void Insert(const std::string& signature, const std::string& identity,
              double f, const SampleCfResult& r);

  // The batch stored under `key`, if any. A hit counts one hit per
  // SampleCF leaf of the stored plan (its num_sampled), as re-running the
  // batch on this cache would.
  std::optional<EstimationBatch> LookupBatch(const std::string& key) const;

  // Stores a completed batch; a key already stored keeps its batch.
  void InsertBatch(std::string key, const EstimationBatch& batch);

  size_t size() const;     // leaf entries
  size_t batches() const;  // batch entries
  // Leaf hits and misses, including the leaves batch hits stand in for:
  // the one count of SampleCF leaves served from this cache.
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  mutable std::mutex mu_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  // Keyed by (signature, object identity, bits of f).
  std::map<std::tuple<std::string, std::string, uint64_t>, SampleCfResult,
           std::less<>>
      entries_;
  std::map<std::string, EstimationBatch> batches_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_ESTIMATION_CACHE_H_
