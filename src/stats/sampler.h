// Uniform samples (Section 4.1 / Appendix B.1). The Sample Manager
// amortizes the expensive part — drawing a uniform random sample — by
// taking ONE sample per table and reusing it for every index on that
// table; partial indexes filter it while they materialize.
#ifndef CAPD_STATS_SAMPLER_H_
#define CAPD_STATS_SAMPLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/random.h"
#include "storage/table.h"

namespace capd {

class ThreadPool;

// Draws a uniform row sample of fraction f (at least min_rows if the table
// has them). The sample is itself a Table, so every consumer (index builder,
// stats) works on it unchanged. A generated table's blocks are filled
// across the borrowed pool; the sample is the same with or without one.
std::unique_ptr<Table> CreateUniformSample(const Table& table, double f,
                                           uint64_t min_rows, Random* rng,
                                           ThreadPool* pool = nullptr);

// Caches one uniform sample per (table, exact bits of f). Tracks how many
// base-table rows were scanned to build samples, the dominant cost the
// paper's Section 4.1 amortizes away.
//
// Thread-safe: the parallel estimation engine calls GetSample from pool
// workers. Each sample is drawn from its own RNG seeded by (seed, table
// name, f printed to six significant digits, the historical cache key), so
// sample contents are independent of creation order and the parallel path
// is bit-identical to the serial one. Returned Table references stay valid
// for the manager's lifetime (entries are never evicted). A draw runs under
// the manager's lock, across the pool it is given; ParallelFor never waits
// on a helper that has not started, so pool workers blocked on that lock
// cannot stall it.
//
// Size-only probes: the estimator's fraction search only needs how many
// rows each candidate fraction's sample would have, and SampleRows answers
// that arithmetically — no draw, no scan, nothing cached. Samples are
// seeded per (table, f), so drawing only the fraction finally chosen
// yields the very rows an eager draw of every fraction would have.
class SampleManager {
 public:
  explicit SampleManager(uint64_t seed) : seed_(seed) {}

  // Returns the cached sample of `table` at fraction f, creating it on
  // first use with its blocks filled across `pool` (null = serial).
  const Table& GetSample(const Table& table, double f,
                         ThreadPool* pool = nullptr);

  // GetSample(table, f).num_rows(), without drawing the sample.
  uint64_t SampleRows(const Table& table, double f) const;

  // Total base-table rows scanned to materialize samples so far.
  uint64_t rows_scanned() const;
  size_t num_samples() const;

 private:
  // Floor on every uniform sample's size (tables smaller than it are
  // sampled whole).
  static constexpr uint64_t kMinSampleRows = 50;

  const uint64_t seed_;
  mutable std::mutex mu_;
  // Keyed by (table name, bits of f).
  std::map<std::pair<std::string, uint64_t>, std::unique_ptr<Table>>
      samples_;
  uint64_t rows_scanned_ = 0;
};

}  // namespace capd

#endif  // CAPD_STATS_SAMPLER_H_
