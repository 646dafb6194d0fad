#include "optimizer/configuration.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace capd {

void Configuration::Add(PhysicalIndexEstimate idx) {
  std::string signature = idx.def.Signature();
  CAPD_CHECK(!Contains(signature))
      << "duplicate index in configuration: " << idx.def.ToString();
  indexes_.push_back(std::move(idx));
  signatures_.push_back(std::move(signature));
}

bool Configuration::Contains(const std::string& signature) const {
  return std::find(signatures_.begin(), signatures_.end(), signature) !=
         signatures_.end();
}

std::string Configuration::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (i > 0) os << "; ";
    os << indexes_[i].def.ToString() << " ~"
       << static_cast<uint64_t>(indexes_[i].bytes / 1024) << "KB";
  }
  os << "}";
  return os.str();
}

}  // namespace capd
