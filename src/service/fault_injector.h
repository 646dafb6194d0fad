// Deterministic fault injection for the TuningService. The injector is
// STATELESS: the decision for a given (request id, attempt, phase) is a
// pure hash of those coordinates and the seed, so the fault schedule is
// independent of thread interleaving, queue order, and wall time — the
// property that makes a fault-injected service run byte-reproducible
// (same seed -> same faults -> same response stream).
//
// Faults fire at advisor phase boundaries: for each attempt with
// injection enabled, the TuningService wraps the request's progress hook
// (AdvisorOptions::progress) so the injector runs before the caller's hook:
//   kTransient      — throw TransientTuningError; the engine reports a
//                     retryable kError and the service retries with backoff.
//   kForcedTimeout  — fire the attempt's cancellation flag attributed as a
//                     deadline: the run winds down with its best-so-far
//                     design and the service resolves kDeadlineExceeded.
//   kSpuriousCancel — fire the flag attributed as noise: the run winds
//                     down, and the service retries on a fresh token.
#ifndef CAPD_SERVICE_FAULT_INJECTOR_H_
#define CAPD_SERVICE_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>

namespace capd {

enum class FaultKind { kNone, kTransient, kForcedTimeout, kSpuriousCancel };

struct FaultInjectorOptions {
  uint64_t seed = 0;
  // Per-phase-boundary probabilities, evaluated in this order from one
  // uniform draw (so they partition [0, 1) and at most one fault fires per
  // boundary). All zero (the default) disables injection entirely.
  double transient_rate = 0.0;
  double forced_timeout_rate = 0.0;
  double spurious_cancel_rate = 0.0;

  bool enabled() const {
    return transient_rate > 0.0 || forced_timeout_rate > 0.0 ||
           spurious_cancel_rate > 0.0;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorOptions options) : options_(options) {}

  // The fault (if any) for this phase boundary of this attempt. Pure:
  // identical arguments always yield the identical decision, and distinct
  // attempts of one request draw independently (so retries are not doomed
  // to repeat their predecessor's fault).
  FaultKind Decide(uint64_t request_id, int attempt,
                   const std::string& phase) const;

  const FaultInjectorOptions& options() const { return options_; }

 private:
  FaultInjectorOptions options_;
};

}  // namespace capd

#endif  // CAPD_SERVICE_FAULT_INJECTOR_H_
