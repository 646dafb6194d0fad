// TuningService: a fault-tolerant front-end on one AdvisorEngine — the
// layer that turns the engine's "one call, one answer" contract into a
// long-lived service that hundreds of clients can hammer without taking
// the advisor down.
//
//   AdvisorEngine engine(db);
//   TuningService service(&engine, ServiceOptions{});
//   ServiceRequest req;
//   req.tuning.workload = workload;
//   req.priority = 5;
//   req.timeout_ms = 2000;
//   ServiceResponse resp = service.Tune(req);   // blocking
//   // or: auto ticket = service.Submit(req);  ...  ticket->Wait();
//
// What it adds over calling AdvisorEngine::Tune directly:
//   Admission control — a bounded priority queue; submissions beyond
//     max_queue are rejected immediately with kOverloaded instead of
//     piling up unboundedly.
//   Deadlines — per-request timeout_ms enforced by a watchdog thread that
//     fires the attempt's CancellationToken, so an expired run winds down
//     cooperatively and still returns its best-so-far design, flagged
//     kDeadlineExceeded. The deadline covers queue wait + every attempt.
//   Priorities — higher priority dequeues first; ties in submission order.
//   Graceful degradation — while the queue sits above the high watermark
//     (sticky until it drains below the low watermark), incoming work is
//     downgraded to a cheaper strategy (default "staged:page") at the
//     requested budget; the response records the downgrade.
//   Retries — retryable failures (TransientTuningError, spurious cancels)
//     are retried on a fresh cancellation token with capped exponential
//     backoff, bounded by the remaining deadline.
//   Fault injection — a seed-driven deterministic FaultInjector for tests
//     and load benches: same seed, same faults, same response bytes.
//
// Every submitted request resolves with a definite status — accepted or
// rejected, and if accepted then exactly one of kOk / kCancelled /
// kDeadlineExceeded / kError, even through service shutdown.
#ifndef CAPD_SERVICE_TUNING_SERVICE_H_
#define CAPD_SERVICE_TUNING_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/advisor_engine.h"
#include "service/fault_injector.h"

namespace capd {

struct ServiceOptions {
  // Worker threads executing tuning runs. The engine's determinism
  // contract makes concurrent Tune calls safe and bit-identical.
  int num_workers = 2;
  // Bounded queue: submissions arriving when `queued >= max_queue` are
  // rejected with kOverloaded (admission control).
  int max_queue = 64;

  // Degradation watermarks on the queued-request count. Crossing
  // high_watermark turns degraded mode on; draining to low_watermark turns
  // it off (sticky in between, so the mode does not flap). Degraded mode
  // is decided per request at dequeue time. high_watermark <= 0 disables
  // degradation.
  int high_watermark = 48;
  int low_watermark = 16;
  // The cheaper strategy a degraded request runs at its requested budget.
  // The response records what actually ran.
  std::string degraded_strategy = "staged:page";

  // Retry policy for retryable failures. Backoff for attempt k (1-based)
  // is min(backoff_base_ms * 2^(k-1), backoff_cap_ms), additionally capped
  // by the request's remaining deadline.
  int max_attempts = 3;
  double backoff_base_ms = 5.0;
  double backoff_cap_ms = 80.0;

  // Deterministic fault injection (off by default; see fault_injector.h).
  FaultInjectorOptions faults;
};

struct ServiceRequest {
  // The underlying engine request. Its `cancel` token stays live: the
  // client may keep a copy and RequestCancel() at any time, queued or
  // running, and the service resolves the request kCancelled.
  TuningRequest tuning;
  // Higher dequeues first; ties resolve in submission order.
  int priority = 0;
  // Wall-clock deadline in milliseconds from submission, covering queue
  // wait and every attempt. 0 = no deadline.
  double timeout_ms = 0.0;
};

enum class ServiceStatus {
  kOk,
  kCancelled,         // the client's own token fired
  kDeadlineExceeded,  // deadline (or injected forced timeout); best-so-far
  kOverloaded,        // rejected at admission, never ran
  kError,             // terminal failure (or retries exhausted)
};

const char* ServiceStatusName(ServiceStatus status);

struct ServiceResponse {
  ServiceStatus status = ServiceStatus::kError;
  // The last attempt's engine response. Empty for kOverloaded and for
  // requests resolved before any attempt ran (e.g. cancelled in queue);
  // holds the best-so-far design for kDeadlineExceeded / kCancelled runs
  // that got far enough to have one.
  TuningResponse tuning;
  std::string error;  // set for kError and never-ran resolutions

  uint64_t request_id = 0;       // submission order, 1-based
  int attempts = 0;              // tuning attempts actually started
  bool degraded = false;         // ran the cheaper degraded plan
  std::string executed_strategy; // what actually ran (after degradation)

  // Informational wall times (never part of any determinism contract).
  double queue_ms = 0.0;
  double run_ms = 0.0;

  bool ok() const { return status == ServiceStatus::kOk; }
};

// Monotonic counters, readable while the service runs.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;   // kOverloaded at admission
  uint64_t completed = 0;  // resolved after acceptance, any status
  uint64_t ok = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t errors = 0;
  uint64_t degraded = 0;
  uint64_t retries = 0;          // attempts beyond the first
  uint64_t faults_injected = 0;  // fault-hook firings that did something
};

class TuningService {
 public:
  // A pending submission. Wait() blocks until the request resolves;
  // rejected submissions are resolved before Submit returns.
  class Ticket {
   public:
    const ServiceResponse& Wait();
    bool done() const;

   private:
    friend class TuningService;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    ServiceResponse response_;
  };

  // `engine` must outlive the service.
  TuningService(AdvisorEngine* engine, ServiceOptions options);
  // Stops admission, resolves still-queued requests as kCancelled
  // ("service shutting down"), and joins the workers — in-flight runs
  // finish normally, deadlines still enforced — and then the watchdog.
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  // Non-blocking submission; the admission decision is made before it
  // returns. Never returns null.
  std::shared_ptr<Ticket> Submit(const ServiceRequest& request);

  // Blocking convenience: Submit + Wait.
  ServiceResponse Tune(const ServiceRequest& request);

  ServiceStats stats() const;
  // Current queued-request count and degraded-mode flag (diagnostics).
  int queue_depth() const;
  bool degraded_mode() const;

  const ServiceOptions& options() const { return options_; }

 private:
  // Why an attempt's cancellation flag fired — first cause wins (CAS), so
  // a deadline racing a user cancel attributes deterministically per run.
  enum class CancelCause : int {
    kNone = 0,
    kUser,          // the client's token
    kDeadline,      // watchdog-enforced timeout_ms
    kForcedTimeout, // injected FaultKind::kForcedTimeout
    kSpurious,      // injected FaultKind::kSpuriousCancel
  };

  struct Job {
    uint64_t id = 0;
    ServiceRequest request;
    std::chrono::steady_clock::time_point submitted_at;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<Ticket> ticket;
  };

  // An in-flight attempt registered with the watchdog.
  struct ActiveRun {
    std::shared_ptr<const std::atomic<bool>> user_flag;
    CancellationToken run_token;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<std::atomic<int>> cause;  // CancelCause
  };

  void WorkerLoop();
  void WatchdogLoop();
  void Execute(const std::shared_ptr<Job>& job, bool degraded);
  void Resolve(const std::shared_ptr<Job>& job, ServiceResponse response);
  static void ResolveTicket(const std::shared_ptr<Ticket>& ticket,
                            ServiceResponse response);
  // Interruptible sleep for retry backoff; returns early on shutdown.
  void SleepFor(double ms);

  AdvisorEngine* engine_;
  const ServiceOptions options_;
  FaultInjector injector_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  // Priority queue keyed (-priority, submission seq): begin() is the
  // highest priority, oldest first.
  std::map<std::pair<int64_t, uint64_t>, std::shared_ptr<Job>> queue_;
  bool degraded_mode_ = false;
  bool stopping_ = false;
  bool watchdog_stop_ = false;  // set once every worker has been joined
  uint64_t next_id_ = 1;

  mutable std::mutex active_mu_;
  std::map<uint64_t, ActiveRun> active_;  // keyed by a per-attempt token id
  uint64_t next_active_id_ = 1;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace capd

#endif  // CAPD_SERVICE_TUNING_SERVICE_H_
