// AdvisorEngine: the front door of the compression-aware physical design
// tool — the "advisor as a managed service" the paper's DBA workflow
// assumes. Construct one engine per database; it owns the whole
// collaborator stack (sample manager, MV registry, what-if optimizer, the
// cross-round estimation cache, the thread pools) and serves tuning
// requests from it, keeping samples and estimates warm across requests.
//
//   AdvisorEngine engine(db);
//   TuningRequest request;
//   request.workload = workload;
//   request.strategy = "dtac-both";           // see strategy_registry.h
//   request.budget = TuningBudget::Fraction(0.2);
//   TuningResponse response = engine.Tune(request);
//   if (response.ok()) std::cout << response.json;
//
// Determinism contract: concurrent Tune() calls on one engine are safe,
// and every response — the AdvisorResult, the text report, and the JSON
// report, bytes included — is identical to running that request alone on
// a freshly wired stack. Shared caches only memoize pure computations
// (samples are seeded per cache key; the estimation cache memoizes
// SampleCF leaves at the fraction an uncached run would pick; the
// statement cost cache is per-request), and the shared pools only change
// who runs a costing, never the order it is reduced in, so warmth and
// thread counts change latency, never results.
//
// The raw Advisor (advisor/advisor.h) remains the low-level layer for
// callers that need to hand-wire collaborators; TuneWithOptions() is the
// escape hatch in between — engine-owned stack, caller-supplied options.
#ifndef CAPD_ENGINE_ADVISOR_ENGINE_H_
#define CAPD_ENGINE_ADVISOR_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "advisor/advisor.h"
#include "engine/strategy_registry.h"
#include "estimator/estimation_cache.h"
#include "mv/mv_registry.h"

namespace capd {

// Upper bound on a request's resolved search or estimation thread count.
// Each count becomes a pool of that many OS threads, and a failed thread
// spawn aborts the process, so Tune rejects larger counts with a kError.
inline constexpr int kMaxTuningThreads = 1024;

struct EngineOptions {
  // Default worker threads for a request's search loop (what-if costings)
  // and estimation batches; 1 = serial, 0 = hardware concurrency, at most
  // kMaxTuningThreads. Requests may override per call. Each count maps to
  // an engine-owned pool (PoolFor) shared across concurrent requests
  // (results stay bit-identical at any thread count).
  int search_threads = 1;
  int estimation_threads = 1;

  // Seed of the engine-owned SampleManager. Samples are seeded per cache
  // key, so any fixed seed gives run-to-run reproducibility.
  uint64_t sample_seed = 4242;
};

// Cooperative cancellation handle. Copies share the flag: keep one, put
// the other in the request, call RequestCancel() from any thread.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  // The flag the advisor polls (AdvisorOptions::cancel).
  std::shared_ptr<const std::atomic<bool>> flag() const { return flag_; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Storage budget: absolute bytes, or a fraction of the base data size
// (resolved against Database::BaseDataBytes() at request time). A 0%
// budget is meaningful: clustered compressed indexes replace the heap and
// charge negative bytes (the paper's Example 1/2).
struct TuningBudget {
  enum class Kind { kFraction, kBytes };

  Kind kind = Kind::kFraction;
  double value = 0.2;

  static TuningBudget Fraction(double fraction) {
    return TuningBudget{Kind::kFraction, fraction};
  }
  static TuningBudget Bytes(double bytes) {
    return TuningBudget{Kind::kBytes, bytes};
  }

  double ResolveBytes(double base_data_bytes) const {
    return kind == Kind::kFraction ? value * base_data_bytes : value;
  }
};

struct TuningRequest {
  Workload workload;
  // Strategy name resolved via StrategyRegistry::Global(); unknown names
  // yield a kError response listing the built-in names.
  std::string strategy = "dtac-both";
  TuningBudget budget;  // default: 20% of base data

  // --- knobs (engine / strategy defaults when negative) ---
  // Thread counts as in EngineOptions; above kMaxTuningThreads the request
  // fails with kError.
  int search_threads = -1;
  int estimation_threads = -1;
  // Candidate-class toggles overlaying the strategy's base options
  // (-1 = strategy default, 0 = off, 1 = on). MV-enabled requests tune
  // against a request-private MV registry, so their workload-derived view
  // definitions never leak into later requests.
  int enable_mv = -1;
  int enable_partial = -1;
  // Prints the advisor's candidate-pool / greedy decisions to stderr
  // (AdvisorOptions::trace; debugging aid).
  bool trace = false;

  // Invoked serially from the tuning thread after each advisor phase
  // ("candidates", "estimation", "selection", "merging", "enumeration").
  std::function<void(const std::string& phase)> progress;
  // Fault hook (AdvisorOptions::fault_hook): runs at the same phase
  // boundaries just before `progress` and may throw TransientTuningError
  // (reported as a retryable kError) or fire a cancellation flag. Used by
  // the TuningService's deterministic FaultInjector; unset otherwise.
  std::function<void(const std::string& phase)> fault_hook;
  // Cancel handle; keep a copy and call RequestCancel() to stop the run at
  // the next phase boundary or enumeration step. Also polled inside the
  // batch-estimation fraction probes / SampleCF leaves and the pooled
  // costing loops, so a cancel binds within long phases too.
  CancellationToken cancel;
};

struct TuningResponse {
  enum class Status { kOk, kCancelled, kError };

  Status status = Status::kError;
  std::string error;     // set when status == kError
  std::string strategy;  // echoed from the request
  double budget_bytes = 0.0;
  // With status == kError: true when the failure was a TransientTuningError
  // (nothing about the engine or database is wrong — retrying the same
  // request may succeed). The TuningService retries these with backoff;
  // terminal errors (unknown strategy, invalid budget, logic errors) never
  // set it.
  bool retryable = false;

  // Valid when status != kError. On kCancelled this is the best partial
  // design (result.cancelled is also set).
  AdvisorResult result;
  std::string report;  // human-readable text report (report.h)
  std::string json;    // versioned JSON report (report_json.h)

  bool ok() const { return status == Status::kOk; }
  bool cancelled() const { return status == Status::kCancelled; }
};

class AdvisorEngine {
 public:
  // `db` must outlive the engine and stay unchanged while it serves (the
  // what-if stack reads it concurrently).
  explicit AdvisorEngine(const Database& db,
                         EngineOptions options = EngineOptions());

  AdvisorEngine(const AdvisorEngine&) = delete;
  AdvisorEngine& operator=(const AdvisorEngine&) = delete;

  // Serves one tuning request. Thread-safe: any number of Tune /
  // TuneWithOptions calls may run concurrently on one engine.
  TuningResponse Tune(const TuningRequest& request);

  // Low-level escape hatch: run Advisor::Tune with caller-built options on
  // the engine-owned stack. The options are used exactly as given: their
  // pools (null = serial) and their estimation cache (null = none), not
  // the engine's. Callers borrow engine pools through PoolFor. Benches use
  // this for ablation variants no built-in strategy covers.
  AdvisorResult TuneWithOptions(const Workload& workload, double budget_bytes,
                                const AdvisorOptions& options);

  // Engine-owned pool of `threads` workers (0 or negative = hardware
  // concurrency), created on first use and shared by every caller asking
  // for that count; null when threads == 1 (serial). Thread-safe. The
  // count must not exceed kMaxTuningThreads.
  ThreadPool* PoolFor(int threads);

  const Database& db() const { return *db_; }
  SampleManager* samples() { return &samples_; }
  MVRegistry* mvs() { return &mvs_; }
  const WhatIfOptimizer& optimizer() const { return optimizer_; }
  // The cross-request estimation cache every Tune shares; never null.
  const std::shared_ptr<EstimationCache>& estimation_cache() const {
    return estimation_cache_;
  }
  const EngineOptions& options() const { return options_; }

 private:
  // The MV registry / optimizer a request tunes against: the engine-owned
  // shared pair normally, or a request-private pair when the options
  // enable MVs (MV-enabled runs Register() workload-derived definitions,
  // which must not leak into later requests).
  struct RequestScope {
    MVRegistry* mvs = nullptr;
    const WhatIfOptimizer* optimizer = nullptr;
    std::unique_ptr<MVRegistry> request_mvs;
    std::unique_ptr<WhatIfOptimizer> request_optimizer;
  };
  RequestScope ScopeFor(const AdvisorOptions& options);

  const Database* db_;
  const EngineOptions options_;
  SampleManager samples_;
  MVRegistry mvs_;
  WhatIfOptimizer optimizer_;
  std::shared_ptr<EstimationCache> estimation_cache_;

  std::mutex pools_mu_;
  std::map<int, std::unique_ptr<ThreadPool>> pools_;  // by thread count
};

}  // namespace capd

#endif  // CAPD_ENGINE_ADVISOR_ENGINE_H_
