#include "estimator/estimation_cache.h"

#include <utility>

#include "common/math_util.h"

namespace capd {

std::optional<SampleCfResult> EstimationCache::Lookup(
    const std::string& signature, const std::string& identity, double f) const {
  const uint64_t bits = FractionBits(f);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(std::tie(signature, identity, bits));
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void EstimationCache::Insert(const std::string& signature,
                             const std::string& identity, double f,
                             const SampleCfResult& r) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[std::make_tuple(signature, identity, FractionBits(f))] = r;
}

std::optional<EstimationBatch> EstimationCache::LookupBatch(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = batches_.find(key);
  if (it == batches_.end()) return std::nullopt;
  hits_ += it->second.num_sampled;
  return it->second;
}

void EstimationCache::InsertBatch(std::string key,
                                  const EstimationBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  batches_.emplace(std::move(key), batch);
}

size_t EstimationCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t EstimationCache::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_.size();
}

uint64_t EstimationCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t EstimationCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace capd
