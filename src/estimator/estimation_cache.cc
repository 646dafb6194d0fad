#include "estimator/estimation_cache.h"

#include "common/math_util.h"

namespace capd {

std::optional<SampleCfResult> EstimationCache::Lookup(
    const std::string& signature, double f) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find({signature, FractionBits(f)});
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void EstimationCache::Insert(const std::string& signature, double f,
                             const SampleCfResult& r) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[{signature, FractionBits(f)}] = r;
}

size_t EstimationCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
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
