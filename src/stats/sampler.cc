#include "stats/sampler.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/math_util.h"

namespace capd {
namespace {

// Sample size: round(n * f), floored at min_rows, never more than n.
uint64_t UniformSampleRows(uint64_t n, double f, uint64_t min_rows) {
  CAPD_CHECK_GT(f, 0.0);
  CAPD_CHECK_LE(f, 1.0);
  return std::clamp(RoundedFraction(n, f), std::min(min_rows, n), n);
}

}  // namespace

std::unique_ptr<Table> CreateUniformSample(const Table& table, double f,
                                           uint64_t min_rows, Random* rng,
                                           ThreadPool* pool) {
  const uint64_t n = table.num_rows();
  const uint64_t k = UniformSampleRows(n, f, min_rows);
  auto sample = std::make_unique<Table>(table.name() + "_sample", table.schema());
  sample->Reserve(k);
  // Streaming extraction: the k indices are drawn up front in sorted order
  // (O(k) memory), then each block holding one is filled once, rendering
  // only its requested rows — a generated 10^8-row table never
  // materializes, and a materialized table yields the byte-identical sample
  // it always did.
  for (Row& row : table.CollectRows(rng->SampleIndices(n, k), pool)) {
    sample->AddRow(std::move(row));
  }
  return sample;
}

uint64_t SampleManager::rows_scanned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_scanned_;
}

size_t SampleManager::num_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

const Table& SampleManager::GetSample(const Table& table, double f,
                                      ThreadPool* pool) {
  const uint64_t bits = FractionBits(f);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find({table.name(), bits});
  if (it == samples_.end()) {
    // Drawing the sample scans the base table once. Building under the lock
    // serializes creation, which also keeps rows_scanned_ exact.
    rows_scanned_ += table.num_rows();
    std::ostringstream key;
    key << table.name() << "|" << f;
    Random rng(seed_ ^ Fnv1a64(key.str()));
    it = samples_
             .emplace(std::make_pair(table.name(), bits),
                      CreateUniformSample(table, f, kMinSampleRows, &rng,
                                          pool))
             .first;
  }
  return *it->second;
}

uint64_t SampleManager::SampleRows(const Table& table, double f) const {
  return UniformSampleRows(table.num_rows(), f, kMinSampleRows);
}

}  // namespace capd
