#include "service/fault_injector.h"

namespace capd {

namespace {

// SplitMix64 finalizer: a fixed, platform-independent bit mixer, so the
// fault schedule is stable across standard libraries and architectures
// (std::hash would not be).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

FaultKind FaultInjector::Decide(uint64_t request_id, int attempt,
                                const std::string& phase) const {
  if (!options_.enabled()) return FaultKind::kNone;
  uint64_t h = Mix(options_.seed);
  h = Mix(h ^ request_id);
  h = Mix(h ^ static_cast<uint64_t>(attempt));
  h = Mix(h ^ HashString(phase));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  double threshold = options_.transient_rate;
  if (u < threshold) return FaultKind::kTransient;
  threshold += options_.forced_timeout_rate;
  if (u < threshold) return FaultKind::kForcedTimeout;
  threshold += options_.spurious_cancel_rate;
  if (u < threshold) return FaultKind::kSpuriousCancel;
  return FaultKind::kNone;
}

}  // namespace capd
