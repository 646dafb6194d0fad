// TuningService robustness tests: admission control (queue-full rejection),
// watermark-driven graceful degradation, deadline enforcement mid-tune
// (best-so-far, flagged) and on a run in flight at shutdown, priority
// ordering under contention, user
// cancellation through the service, and seeded fault-injection determinism
// (same seed -> byte-identical response stream). Plus the deep-cancellation
// pins of the estimator: a cancel flag binds inside a batch estimation, and
// a wired-but-never-fired flag leaves results bit-identical. And concurrent
// cold requests whose sample draws share one estimation pool.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "estimator/size_estimator.h"
#include "service/tuning_service.h"
#include "workloads/registry.h"

namespace capd {
namespace {

constexpr double kBudgetFrac = 0.15;
constexpr uint64_t kRows = 2000;

// Blocks the (single) worker inside a request's first progress callback, so
// tests can pile submissions behind a known-busy service deterministically.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

class TuningServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workloads::WorkloadSpec spec;
    spec.name = "tpch";
    spec.rows = kRows;
    std::string error;
    ASSERT_TRUE(workloads::Build(spec, &built_, &error)) << error;
    engine_ = std::make_unique<AdvisorEngine>(*built_.db);
  }

  ServiceRequest MakeRequest(const std::string& strategy) const {
    ServiceRequest request;
    request.tuning.workload = built_.workload;
    request.tuning.strategy = strategy;
    request.tuning.budget = TuningBudget::Fraction(kBudgetFrac);
    return request;
  }

  ServiceRequest GateRequest(Gate* gate) const {
    ServiceRequest request = MakeRequest("dtac-topk");
    request.tuning.progress = [gate](const std::string& phase) {
      if (phase == "candidates") gate->Enter();
    };
    return request;
  }

  workloads::BuiltWorkload built_;
  std::unique_ptr<AdvisorEngine> engine_;
};

TEST_F(TuningServiceTest, QueueFullRejectsWithOverloaded) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 2;
  options.high_watermark = 0;  // isolate admission from degradation
  TuningService service(engine_.get(), options);

  Gate gate;
  auto busy = service.Submit(GateRequest(&gate));
  gate.AwaitEntered();  // worker is now blocked mid-run, queue empty

  auto first = service.Submit(MakeRequest("dtac-topk"));
  auto second = service.Submit(MakeRequest("dtac-skyline"));
  EXPECT_FALSE(first->done());
  EXPECT_FALSE(second->done());
  EXPECT_EQ(service.queue_depth(), 2);

  // Third submission exceeds max_queue: rejected before Submit returns.
  auto rejected = service.Submit(MakeRequest("dtac-topk"));
  ASSERT_TRUE(rejected->done());
  const ServiceResponse& r = rejected->Wait();
  EXPECT_EQ(r.status, ServiceStatus::kOverloaded);
  EXPECT_EQ(r.error, "queue full");
  EXPECT_EQ(r.attempts, 0);

  gate.Release();
  EXPECT_EQ(busy->Wait().status, ServiceStatus::kOk);
  EXPECT_EQ(first->Wait().status, ServiceStatus::kOk);
  EXPECT_EQ(second->Wait().status, ServiceStatus::kOk);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.ok, 3u);
}

TEST_F(TuningServiceTest, WatermarkBackpressureDegradesAndRecords) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 16;
  options.high_watermark = 3;
  options.low_watermark = 0;
  options.degraded_strategy = "staged:page";
  TuningService service(engine_.get(), options);

  Gate gate;
  auto busy = service.Submit(GateRequest(&gate));
  gate.AwaitEntered();

  // Four requests queue behind the blocked worker; depth crosses the high
  // watermark at the third, and the mode stays sticky until the queue
  // drains back to the low watermark.
  std::vector<std::shared_ptr<TuningService::Ticket>> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(service.Submit(MakeRequest("dtac-topk")));
  }
  EXPECT_TRUE(service.degraded_mode());
  gate.Release();
  EXPECT_EQ(busy->Wait().status, ServiceStatus::kOk);

  // Dequeue depths are 3, 2, 1, 0: the first three run degraded (>= high,
  // then sticky), the last sees the drained queue and runs as requested.
  for (int i = 0; i < 4; ++i) {
    const ServiceResponse& r = tickets[i]->Wait();
    ASSERT_EQ(r.status, ServiceStatus::kOk) << i << ": " << r.error;
    if (i < 3) {
      EXPECT_TRUE(r.degraded) << i;
      EXPECT_EQ(r.executed_strategy, "staged:page") << i;
      EXPECT_EQ(r.tuning.strategy, "staged:page") << i;
    } else {
      EXPECT_FALSE(r.degraded) << i;
      EXPECT_EQ(r.executed_strategy, "dtac-topk") << i;
    }
  }
  EXPECT_FALSE(service.degraded_mode());
  EXPECT_EQ(service.stats().degraded, 3u);
}

TEST_F(TuningServiceTest, InvalidWeightIsATerminalError) {
  ServiceOptions options;
  options.num_workers = 1;
  options.high_watermark = 0;
  options.max_attempts = 3;
  TuningService service(engine_.get(), options);

  ServiceRequest request = MakeRequest("dtac-both");
  Statement& first = request.tuning.workload.statements.front();
  first.weight = std::numeric_limits<double>::quiet_NaN();
  const ServiceResponse r = service.Tune(request);
  EXPECT_EQ(r.status, ServiceStatus::kError);
  EXPECT_EQ(r.attempts, 1);  // not retried
  EXPECT_FALSE(r.tuning.retryable);
  EXPECT_NE(r.error.find(first.id), std::string::npos) << r.error;
  EXPECT_EQ(service.Tune(MakeRequest("dtac-topk")).status, ServiceStatus::kOk);
}

TEST_F(TuningServiceTest, UnknownNameIsATerminalError) {
  ServiceOptions options;
  options.num_workers = 1;
  options.high_watermark = 0;
  options.max_attempts = 3;
  TuningService service(engine_.get(), options);

  ServiceRequest request = MakeRequest("dtac-both");
  Statement& first = request.tuning.workload.statements.front();
  ASSERT_EQ(first.type, StatementType::kSelect);
  first.select.projected.push_back("no_such_column");
  const ServiceResponse r = service.Tune(request);
  EXPECT_EQ(r.status, ServiceStatus::kError);
  EXPECT_EQ(r.attempts, 1);  // not retried
  EXPECT_FALSE(r.tuning.retryable);
  EXPECT_NE(r.error.find(first.id), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("no_such_column"), std::string::npos) << r.error;
  EXPECT_EQ(service.Tune(MakeRequest("dtac-topk")).status, ServiceStatus::kOk);
}

TEST_F(TuningServiceTest, DeadlineMidTuneReturnsBestSoFarFlagged) {
  ServiceOptions options;
  options.num_workers = 1;
  options.high_watermark = 0;
  TuningService service(engine_.get(), options);

  // Far too tight for a full tune at kRows: the watchdog fires the
  // attempt's token mid-run (typically inside estimation, where the deep
  // polls of the batch loops bind) and the run winds down cooperatively.
  ServiceRequest request = MakeRequest("dtac-skyline");
  request.timeout_ms = 5.0;
  const ServiceResponse response = service.Tune(request);
  EXPECT_EQ(response.status, ServiceStatus::kDeadlineExceeded);
  EXPECT_EQ(response.attempts, 1);
  // The engine response is the cooperative wind-down: flagged cancelled,
  // carrying whatever design the run had at that point.
  EXPECT_EQ(response.tuning.status, TuningResponse::Status::kCancelled);
  EXPECT_TRUE(response.tuning.result.cancelled);

  // The service stays healthy: an undeadlined request completes normally.
  EXPECT_EQ(service.Tune(MakeRequest("dtac-topk")).status, ServiceStatus::kOk);
}

// A timeout the clock cannot hold sets no deadline: it neither overflows
// into a deadline in the past nor cuts the run short.
TEST_F(TuningServiceTest, UnrepresentableTimeoutSetsNoDeadline) {
  ServiceOptions options;
  options.num_workers = 1;
  options.high_watermark = 0;
  TuningService service(engine_.get(), options);
  for (const double timeout_ms :
       {std::numeric_limits<double>::infinity(), 1e300}) {
    SCOPED_TRACE(timeout_ms);
    ServiceRequest request = MakeRequest("dtac-topk");
    request.timeout_ms = timeout_ms;
    const ServiceResponse response = service.Tune(request);
    EXPECT_EQ(response.status, ServiceStatus::kOk) << response.error;
    EXPECT_FALSE(response.tuning.result.cancelled);
    EXPECT_GT(response.tuning.result.config.size(), 0u);
  }
}

// Shutdown lets in-flight runs finish, and the watchdog stays up until the
// last of them has: a run still going when the service is destroyed is cut
// off at its deadline like any other.
TEST_F(TuningServiceTest, DeadlineBindsOnARunInFlightAtShutdown) {
  ServiceOptions options;
  options.num_workers = 1;
  options.high_watermark = 0;
  auto service = std::make_unique<TuningService>(engine_.get(), options);

  Gate gate;
  ServiceRequest request = GateRequest(&gate);
  request.timeout_ms = 200.0;
  auto ticket = service->Submit(request);
  gate.AwaitEntered();
  // The destructor stops admission at once, then waits for the worker.
  std::thread shutdown([&service] { service.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  gate.Release();
  shutdown.join();

  const ServiceResponse& r = ticket->Wait();
  EXPECT_EQ(r.status, ServiceStatus::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_TRUE(r.tuning.result.cancelled);
}

TEST_F(TuningServiceTest, PriorityOrderingUnderContention) {
  ServiceOptions options;
  options.num_workers = 1;
  options.high_watermark = 0;
  TuningService service(engine_.get(), options);

  Gate gate;
  auto busy = service.Submit(GateRequest(&gate));
  gate.AwaitEntered();

  // Tag each queued request's execution via its progress hook; with one
  // worker, the recorded order is the dequeue order.
  std::mutex order_mu;
  std::vector<int> order;
  auto tagged = [&](int tag, int priority) {
    ServiceRequest request = MakeRequest("staged:page");
    request.priority = priority;
    // "candidates" fires exactly once per run (the staged baseline's
    // stage 2 reports no candidate phase), so it tags the dequeue order.
    request.tuning.progress = [&order_mu, &order, tag](const std::string& p) {
      if (p != "candidates") return;
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
    return service.Submit(request);
  };
  std::vector<std::shared_ptr<TuningService::Ticket>> tickets;
  tickets.push_back(tagged(/*tag=*/1, /*priority=*/1));
  tickets.push_back(tagged(/*tag=*/2, /*priority=*/5));
  tickets.push_back(tagged(/*tag=*/3, /*priority=*/3));
  tickets.push_back(tagged(/*tag=*/4, /*priority=*/5));

  gate.Release();
  busy->Wait();
  for (auto& ticket : tickets) {
    EXPECT_EQ(ticket->Wait().status, ServiceStatus::kOk);
  }
  // Highest priority first; equal priorities in submission order.
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3, 1}));
}

TEST_F(TuningServiceTest, UserCancelResolvesQueuedAndRunningRequests) {
  ServiceOptions options;
  options.num_workers = 1;
  options.high_watermark = 0;
  TuningService service(engine_.get(), options);

  Gate gate;
  auto busy = service.Submit(GateRequest(&gate));
  gate.AwaitEntered();

  // Cancelled while still queued: resolves without ever running.
  ServiceRequest queued = MakeRequest("dtac-topk");
  CancellationToken queued_token = queued.tuning.cancel;
  auto queued_ticket = service.Submit(queued);
  queued_token.RequestCancel();
  gate.Release();
  busy->Wait();
  const ServiceResponse& qr = queued_ticket->Wait();
  EXPECT_EQ(qr.status, ServiceStatus::kCancelled);
  EXPECT_EQ(qr.attempts, 0);

  // Cancelled mid-run: the watchdog relays the client token to the
  // attempt's token; the response is kCancelled with the partial design.
  ServiceRequest running = MakeRequest("dtac-skyline");
  CancellationToken running_token = running.tuning.cancel;
  running.tuning.progress = [&running_token](const std::string& phase) {
    if (phase == "estimation") running_token.RequestCancel();
  };
  const ServiceResponse rr = service.Tune(running);
  EXPECT_EQ(rr.status, ServiceStatus::kCancelled);
  EXPECT_EQ(rr.attempts, 1);
  EXPECT_TRUE(rr.tuning.result.cancelled);
}

// The byte-comparable projection of a response stream: everything except
// wall times (queue_ms / run_ms are informational and never deterministic).
std::string StreamBytes(const std::vector<ServiceResponse>& responses) {
  std::ostringstream out;
  for (const ServiceResponse& r : responses) {
    out << r.request_id << '|' << ServiceStatusName(r.status) << '|'
        << r.attempts << '|' << r.degraded << '|' << r.executed_strategy
        << '|' << static_cast<int>(r.tuning.status) << '|' << r.tuning.error
        << '|' << r.error << '|' << r.tuning.report << '|' << r.tuning.json
        << '\n';
  }
  return out.str();
}

TEST_F(TuningServiceTest, SeededFaultInjectionIsByteDeterministic) {
  // The injector is a pure hash of (seed, request id, attempt, phase), so
  // the fault schedule — and with it every status, retry count, and report
  // byte — must reproduce exactly across service instances. Faults fire at
  // phase boundaries, which keeps even the interrupted runs' best-so-far
  // designs deterministic (unlike wall-clock deadlines, which are excluded
  // here).
  const char* const strategies[] = {"dtac-topk", "dtac-skyline",
                                    "staged:page"};
  auto run_batch = [&](std::vector<ServiceResponse>* responses,
                       ServiceStats* stats) {
    ServiceOptions options;
    options.num_workers = 1;  // deterministic execution order
    options.max_queue = 64;
    options.high_watermark = 0;  // depth-dependent decisions are not seeded
    options.max_attempts = 3;
    options.backoff_base_ms = 0.5;
    options.backoff_cap_ms = 2.0;
    options.faults.seed = 7;
    options.faults.transient_rate = 0.15;
    options.faults.forced_timeout_rate = 0.10;
    options.faults.spurious_cancel_rate = 0.10;
    TuningService service(engine_.get(), options);
    std::vector<std::shared_ptr<TuningService::Ticket>> tickets;
    for (int i = 0; i < 10; ++i) {
      tickets.push_back(service.Submit(MakeRequest(strategies[i % 3])));
    }
    for (auto& ticket : tickets) responses->push_back(ticket->Wait());
    *stats = service.stats();
  };

  std::vector<ServiceResponse> first, second;
  ServiceStats stats_first, stats_second;
  run_batch(&first, &stats_first);
  run_batch(&second, &stats_second);

  // The schedule actually did something, and every request resolved.
  EXPECT_GT(stats_first.faults_injected, 0u);
  EXPECT_EQ(stats_first.completed, stats_first.accepted);
  EXPECT_EQ(stats_second.completed, stats_second.accepted);
  EXPECT_EQ(stats_first.faults_injected, stats_second.faults_injected);
  EXPECT_EQ(stats_first.retries, stats_second.retries);

  EXPECT_EQ(StreamBytes(first), StreamBytes(second));
}

TEST_F(TuningServiceTest, InjectorRunsBeforeTheCallersProgressHook) {
  // With injection on, the service wraps each attempt's progress hook and
  // runs the injector first: a clean attempt's hook hears the five phases
  // in order, and a phase where a transient fault ends the attempt is
  // never heard. The schedule is replayed from an injector with the same
  // options, since it is a pure hash of (request id, attempt, phase).
  ServiceOptions options;
  options.num_workers = 1;
  options.high_watermark = 0;
  options.max_attempts = 6;
  options.backoff_base_ms = 0.5;
  options.backoff_cap_ms = 1.0;
  options.faults.seed = 11;
  options.faults.transient_rate = 0.15;
  const FaultInjector injector(options.faults);
  const std::vector<std::string> phases = {
      "candidates", "estimation", "selection", "merging", "enumeration"};
  TuningService service(engine_.get(), options);

  int faulted_attempts = 0;
  int clean_requests = 0;
  for (int i = 0; i < 6; ++i) {
    auto heard = std::make_shared<std::vector<std::string>>();
    ServiceRequest request = MakeRequest("dtac-topk");
    request.tuning.progress = [heard](const std::string& phase) {
      heard->push_back(phase);
    };
    const ServiceResponse r = service.Tune(request);
    std::vector<std::string> want;
    for (int attempt = 1; attempt <= r.attempts; ++attempt) {
      for (const std::string& phase : phases) {
        if (injector.Decide(r.request_id, attempt, phase) ==
            FaultKind::kTransient) {
          ++faulted_attempts;
          break;
        }
        want.push_back(phase);
      }
    }
    EXPECT_EQ(*heard, want) << "request " << r.request_id;
    if (r.status == ServiceStatus::kOk) {
      ++clean_requests;
      ASSERT_GE(heard->size(), 5u);
      const std::vector<std::string> clean(heard->end() - 5, heard->end());
      EXPECT_EQ(clean, phases);
    }
  }
  EXPECT_GT(faulted_attempts, 0);
  EXPECT_GT(clean_requests, 0);
}

// Three workers share one cold engine, its SampleManager and its 2-thread
// estimation pool: a request drawing a sample across the pool holds the
// manager's lock while other requests' leaves may block on it from the
// pool's workers. Every response matches the same request run alone and
// serially.
TEST(TuningServiceConcurrencyTest, PooledColdDrawsMatchSerialReferences) {
  workloads::WorkloadSpec spec;
  spec.name = "scale";
  spec.rows = 30000;
  workloads::BuiltWorkload built;
  std::string error;
  ASSERT_TRUE(workloads::Build(spec, &built, &error)) << error;
  std::vector<TuningRequest> requests;
  for (const char* strategy : {"dtac-both", "dtac-topk"}) {
    for (const double budget : {0.05, 0.10, 0.20}) {
      TuningRequest request;
      request.workload = built.workload;
      request.strategy = strategy;
      request.budget = TuningBudget::Fraction(budget);
      requests.push_back(request);
    }
  }
  std::vector<std::string> serial;
  for (const TuningRequest& request : requests) {
    AdvisorEngine engine(*built.db);  // one estimation thread, cold
    const TuningResponse response = engine.Tune(request);
    ASSERT_TRUE(response.ok()) << response.error;
    serial.push_back(response.json);
  }

  EngineOptions engine_options;
  engine_options.estimation_threads = 2;
  AdvisorEngine engine(*built.db, engine_options);
  ServiceOptions options;
  options.num_workers = 3;
  options.high_watermark = 0;  // no degradation
  TuningService service(&engine, options);
  std::vector<std::shared_ptr<TuningService::Ticket>> tickets;
  for (const TuningRequest& request : requests) {
    ServiceRequest submitted;
    submitted.tuning = request;
    tickets.push_back(service.Submit(submitted));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const ServiceResponse response = tickets[i]->Wait();
    ASSERT_EQ(response.status, ServiceStatus::kOk) << response.error;
    EXPECT_EQ(response.tuning.json, serial[i])
        << requests[i].strategy << " at " << requests[i].budget.value;
  }
}

// ---- Deep-cancellation pins (the estimator-level contract) ----

// Wraps a SampleSource and fires a cancellation flag after N Sample()
// resolutions — the only way to raise a flag provably *inside* a batch
// estimation rather than at an advisor phase boundary.
class FiringSampleSource : public SampleSource {
 public:
  FiringSampleSource(SampleSource* inner,
                     std::shared_ptr<std::atomic<bool>> flag, int fire_after)
      : inner_(inner), flag_(std::move(flag)), fire_after_(fire_after) {}

  const Table& Sample(const std::string& object, double f) override {
    if (++calls_ >= fire_after_) {
      flag_->store(true, std::memory_order_relaxed);
    }
    return inner_->Sample(object, f);
  }
  double FullTuples(const std::string& object) override {
    return inner_->FullTuples(object);
  }
  const Schema& ObjectSchema(const std::string& object) override {
    return inner_->ObjectSchema(object);
  }
  int calls() const { return calls_; }

 private:
  SampleSource* inner_;
  std::shared_ptr<std::atomic<bool>> flag_;
  int fire_after_;
  int calls_ = 0;
};

std::vector<IndexDef> CompressedLineitemTargets() {
  std::vector<IndexDef> targets;
  for (const auto& keys :
       {std::vector<std::string>{"l_shipdate"},
        std::vector<std::string>{"l_shipdate", "l_shipmode"},
        std::vector<std::string>{"l_partkey"},
        std::vector<std::string>{"l_orderkey", "l_quantity"}}) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = keys;
    def.compression = CompressionKind::kRow;
    targets.push_back(def);
  }
  return targets;
}

TEST_F(TuningServiceTest, CancellationBindsInsideBatchEstimation) {
  SampleManager samples(4242);
  TableSampleSource inner(*built_.db, &samples);
  auto flag = std::make_shared<std::atomic<bool>>(false);
  FiringSampleSource firing(&inner, flag, /*fire_after=*/1);

  SizeEstimationOptions options;
  options.cancel = flag;
  SizeEstimator estimator(*built_.db, &firing, ErrorModel(), options);
  const EstimationBatch result =
      estimator.EstimateAll(CompressedLineitemTargets());

  // The flag fired on the very first sample resolution, deep inside the
  // first fraction probe: the batch abandons the search instead of pricing
  // every target at every fraction.
  EXPECT_TRUE(flag->load());
  EXPECT_TRUE(result.estimates.empty())
      << "a cancelled batch must not deliver a partial plan as if complete";
  EXPECT_LT(firing.calls(), 8) << "polling should stop the fraction search "
                                  "well before all probes run";
}

TEST_F(TuningServiceTest, UnfiredCancelFlagIsBitIdentical) {
  const std::vector<IndexDef> targets = CompressedLineitemTargets();

  auto run = [&](bool with_flag) {
    SampleManager samples(4242);
    TableSampleSource source(*built_.db, &samples);
    SizeEstimationOptions options;
    if (with_flag) options.cancel = std::make_shared<std::atomic<bool>>(false);
    SizeEstimator estimator(*built_.db, &source, ErrorModel(), options);
    return estimator.EstimateAll(targets);
  };
  const EstimationBatch with = run(true);
  const EstimationBatch without = run(false);

  EXPECT_EQ(std::memcmp(&with.chosen_f, &without.chosen_f, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&with.total_cost_pages, &without.total_cost_pages,
                        sizeof(double)),
            0);
  EXPECT_EQ(with.num_sampled, without.num_sampled);
  EXPECT_EQ(with.num_deduced, without.num_deduced);
  ASSERT_EQ(with.estimates.size(), without.estimates.size());
  auto a = with.estimates.begin();
  auto b = without.estimates.begin();
  for (; a != with.estimates.end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    EXPECT_EQ(std::memcmp(&a->second.est_bytes, &b->second.est_bytes,
                          sizeof(double)),
              0)
        << a->first;
    EXPECT_EQ(std::memcmp(&a->second.est_tuples, &b->second.est_tuples,
                          sizeof(double)),
              0)
        << a->first;
  }
}

}  // namespace
}  // namespace capd
