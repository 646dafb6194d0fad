#include "common/random.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace capd {

std::vector<uint64_t> Random::SampleIndices(uint64_t n, uint64_t k) {
  CAPD_CHECK_LE(k, n);
  // Floyd's algorithm: O(k) expected, then sort for increasing order.
  std::vector<uint64_t> picked;
  picked.reserve(k);
  // For small k relative to n Floyd is ideal; for large k fall back to a
  // partial shuffle to avoid collision churn.
  if (k * 2 >= n) {
    std::vector<uint64_t> all(n);
    for (uint64_t i = 0; i < n; ++i) all[i] = i;
    for (uint64_t i = 0; i < k; ++i) {
      const uint64_t j = i + Next(n - i);
      std::swap(all[i], all[j]);
    }
    picked.assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(k));
  } else {
    // Membership is the only thing consulted, so a hash set of the k picked
    // values keeps this branch O(k) memory too (the former
    // std::vector<bool> seen(n) silently made it O(n) — ~12 MB per draw at
    // n = 10^8). The engine consumption and the emitted indices are
    // identical to the bitmap version for any (seed, n, k).
    std::unordered_set<uint64_t> seen;
    seen.reserve(k);
    for (uint64_t j = n - k; j < n; ++j) {
      const uint64_t t = Next(j + 1);
      if (seen.insert(t).second) {
        picked.push_back(t);
      } else {
        seen.insert(j);
        picked.push_back(j);
      }
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

}  // namespace capd
