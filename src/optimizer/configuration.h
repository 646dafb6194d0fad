// A hypothetical physical configuration: the set of indexes the what-if
// optimizer costs a statement against, each with its (estimated) size. The
// estimated size matters doubly — it drives I/O cost AND the storage-budget
// accounting in enumeration. A Configuration is what a tune returns and
// what reports and tests build. The advisor's search builds none: it costs
// its interned candidate ids from per-candidate uses (cost_cache.h).
#ifndef CAPD_OPTIMIZER_CONFIGURATION_H_
#define CAPD_OPTIMIZER_CONFIGURATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/index_def.h"

namespace capd {

struct PhysicalIndexEstimate {
  IndexDef def;
  double bytes = 0.0;   // estimated total size
  double tuples = 0.0;  // estimated entry count

  double pages() const { return bytes / kPageSize; }
};

class Configuration {
 public:
  Configuration() = default;

  // Appends `idx`; CHECK-fails on a duplicate signature.
  void Add(PhysicalIndexEstimate idx);
  bool Contains(const std::string& signature) const;

  // In insertion order. Costs depend on that order (best-path ties and
  // floating-point sums follow it).
  const std::vector<PhysicalIndexEstimate>& indexes() const { return indexes_; }

  size_t size() const { return indexes_.size(); }

  std::string ToString() const;

 private:
  std::vector<PhysicalIndexEstimate> indexes_;
  std::vector<std::string> signatures_;  // parallel to indexes_
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_CONFIGURATION_H_
