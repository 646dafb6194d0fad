// A hypothetical physical configuration: the set of indexes the what-if
// optimizer costs a statement against, each with its (estimated) size. The
// estimated size matters doubly — it drives I/O cost AND the storage-budget
// accounting in enumeration.
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

  // Adds `idx`, recording its signature; CHECK-fails on a duplicate.
  void Add(PhysicalIndexEstimate idx);
  // Removes the index with this signature; returns true if present.
  bool Remove(const std::string& signature);
  bool Contains(const std::string& signature) const;

  const std::vector<PhysicalIndexEstimate>& indexes() const { return indexes_; }
  // indexes()[i].def.Signature(), rendered once when the index was added.
  const std::string& signature(size_t i) const { return signatures_[i]; }
  // True if some clustered index on `object` is present.
  bool HasClusteredOn(const std::string& object) const;

  double TotalBytes() const;
  size_t size() const { return indexes_.size(); }

  std::string ToString() const;

 private:
  std::vector<PhysicalIndexEstimate> indexes_;
  std::vector<std::string> signatures_;  // parallel to indexes_
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_CONFIGURATION_H_
