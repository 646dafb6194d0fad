#include "estimator/estimation_cache.h"

#include <cstring>

namespace capd {

std::string EstimationCache::Key(const std::string& signature, double f) {
  // The exact bits of f: fractions that merely print alike never share.
  char bits[sizeof(double)];
  std::memcpy(bits, &f, sizeof(bits));
  return signature + '@' + std::string(bits, sizeof(bits));
}

size_t EstimationCache::EntryBytes(const std::string& key) {
  // Approximation: the key is stored twice (map key + LRU list node), plus
  // the result payload and per-node container overhead.
  constexpr size_t kNodeOverhead = 96;
  return 2 * key.size() + sizeof(SampleCfResult) + kNodeOverhead;
}

void EstimationCache::TouchLocked(const Entry& entry) const {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

void EstimationCache::EvictOverCapacityLocked() {
  if (capacity_bytes_ == 0) return;
  while (bytes_ > capacity_bytes_ && !lru_.empty()) {
    const std::string& victim = lru_.back();
    const auto it = entries_.find(victim);
    bytes_ -= EntryBytes(victim);
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

std::optional<SampleCfResult> EstimationCache::Lookup(
    const std::string& signature, double f) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(Key(signature, f));
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  TouchLocked(it->second);
  return it->second.result;
}

void EstimationCache::Insert(const std::string& signature, double f,
                             const SampleCfResult& r) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = Key(signature, f);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.result = r;
    TouchLocked(it->second);
    return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{r, lru_.begin()};
  bytes_ += EntryBytes(key);
  EvictOverCapacityLocked();
}

size_t EstimationCache::charged_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
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

uint64_t EstimationCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace capd
