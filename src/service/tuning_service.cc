#include "service/tuning_service.h"

#include <algorithm>
#include <limits>

namespace capd {

namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

const char* ServiceStatusName(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk:
      return "ok";
    case ServiceStatus::kCancelled:
      return "cancelled";
    case ServiceStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case ServiceStatus::kOverloaded:
      return "overloaded";
    case ServiceStatus::kError:
      return "error";
  }
  return "unknown";
}

const ServiceResponse& TuningService::Ticket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return response_;
}

bool TuningService::Ticket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

TuningService::TuningService(AdvisorEngine* engine, ServiceOptions options)
    : engine_(engine),
      options_(std::move(options)),
      injector_(options_.faults) {
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

TuningService::~TuningService() {
  std::vector<std::shared_ptr<Job>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    orphans.reserve(queue_.size());
    for (auto& [key, job] : queue_) orphans.push_back(job);
    queue_.clear();
  }
  queue_cv_.notify_all();
  // Still-queued requests resolve with a definite status even through
  // shutdown; in-flight runs finish normally below.
  for (const std::shared_ptr<Job>& job : orphans) {
    ServiceResponse response;
    response.status = ServiceStatus::kCancelled;
    response.error = "service shutting down";
    response.request_id = job->id;
    response.queue_ms = MillisBetween(job->submitted_at, Clock::now());
    Resolve(job, std::move(response));
  }
  for (std::thread& worker : workers_) worker.join();
  // The watchdog stops only after the last worker has exited, so runs that
  // finish during shutdown keep their deadlines, and the threads always
  // exit in the same order. Were the two exits to race, glibc malloc could
  // hand the next thread to allocate a fresh arena while the arena the
  // exited worker grew sat idle and resident, and peak RSS would differ
  // from one run to the next.
  {
    std::lock_guard<std::mutex> lock(mu_);
    watchdog_stop_ = true;
  }
  watchdog_.join();
}

std::shared_ptr<TuningService::Ticket> TuningService::Submit(
    const ServiceRequest& request) {
  auto ticket = std::make_shared<Ticket>();
  const Clock::time_point now = Clock::now();
  std::shared_ptr<Job> job;
  bool rejected = false;
  ServiceResponse rejection;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || static_cast<int>(queue_.size()) >= options_.max_queue) {
      rejected = true;
      rejection.status = ServiceStatus::kOverloaded;
      rejection.error = stopping_ ? "service shutting down" : "queue full";
      rejection.request_id = next_id_++;
    } else {
      job = std::make_shared<Job>();
      job->id = next_id_++;
      job->request = request;
      job->submitted_at = now;
      if (request.timeout_ms > 0.0) {
        job->has_deadline = true;
        job->deadline =
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          request.timeout_ms));
      }
      job->ticket = ticket;
      queue_[{-static_cast<int64_t>(request.priority), job->id}] = job;
      const int depth = static_cast<int>(queue_.size());
      if (options_.high_watermark > 0 && depth >= options_.high_watermark) {
        degraded_mode_ = true;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
    if (rejected) {
      ++stats_.rejected;
    } else {
      ++stats_.accepted;
    }
  }
  if (rejected) {
    ResolveTicket(ticket, std::move(rejection));
  } else {
    queue_cv_.notify_one();
  }
  return ticket;
}

ServiceResponse TuningService::Tune(const ServiceRequest& request) {
  return Submit(request)->Wait();
}

void TuningService::WorkerLoop() {
  while (true) {
    std::shared_ptr<Job> job;
    bool degraded = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = queue_.begin()->second;
      queue_.erase(queue_.begin());
      const int depth = static_cast<int>(queue_.size());
      if (options_.high_watermark > 0) {
        if (depth >= options_.high_watermark) {
          degraded_mode_ = true;
        } else if (depth <= options_.low_watermark) {
          degraded_mode_ = false;
        }
        degraded = degraded_mode_;
      }
    }
    Execute(job, degraded);
  }
}

void TuningService::WatchdogLoop() {
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (watchdog_stop_) return;
    }
    {
      std::lock_guard<std::mutex> lock(active_mu_);
      const Clock::time_point now = Clock::now();
      for (auto& [id, run] : active_) {
        if (run.cause->load(std::memory_order_relaxed) !=
            static_cast<int>(CancelCause::kNone)) {
          continue;
        }
        int expected = static_cast<int>(CancelCause::kNone);
        if (run.user_flag != nullptr &&
            run.user_flag->load(std::memory_order_relaxed)) {
          if (run.cause->compare_exchange_strong(
                  expected, static_cast<int>(CancelCause::kUser))) {
            run.run_token.RequestCancel();
          }
        } else if (run.has_deadline && now >= run.deadline) {
          if (run.cause->compare_exchange_strong(
                  expected, static_cast<int>(CancelCause::kDeadline))) {
            run.run_token.RequestCancel();
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void TuningService::Execute(const std::shared_ptr<Job>& job, bool degraded) {
  const Clock::time_point started = Clock::now();

  ServiceResponse response;
  response.request_id = job->id;
  response.queue_ms = MillisBetween(job->submitted_at, started);
  response.degraded = degraded;

  // The plan this request actually runs: the caller's, or — in degraded
  // mode — the cheap one, recorded in the response either way.
  TuningRequest base = job->request.tuning;
  if (degraded) {
    base.strategy = options_.degraded_strategy;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.degraded;
  }
  response.executed_strategy = base.strategy;

  const std::shared_ptr<const std::atomic<bool>> user_flag =
      job->request.tuning.cancel.flag();
  auto user_cancelled = [&] {
    return user_flag != nullptr && user_flag->load(std::memory_order_relaxed);
  };
  auto remaining_ms = [&]() -> double {
    if (!job->has_deadline) return std::numeric_limits<double>::infinity();
    return MillisBetween(Clock::now(), job->deadline);
  };
  auto finish = [&](ServiceResponse r) {
    r.run_ms = MillisBetween(started, Clock::now());
    Resolve(job, std::move(r));
  };

  // Best-so-far of the latest attempt, used when the deadline or the retry
  // budget expires between attempts.
  TuningResponse last;
  bool has_last = false;

  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (user_cancelled()) {
      response.status = ServiceStatus::kCancelled;
      if (has_last) response.tuning = std::move(last);
      if (response.attempts == 0) response.error = "cancelled before execution";
      finish(std::move(response));
      return;
    }
    if (remaining_ms() <= 0.0) {
      response.status = ServiceStatus::kDeadlineExceeded;
      if (has_last) response.tuning = std::move(last);
      if (response.attempts == 0) response.error = "deadline expired in queue";
      finish(std::move(response));
      return;
    }

    response.attempts = attempt;
    if (attempt > 1) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.retries;
    }

    // Fresh token per attempt: tokens never reset, so a retry after an
    // injected cancellation must not inherit the fired flag. `cause`
    // attributes the first firing (user / deadline / injected) via CAS.
    auto cause = std::make_shared<std::atomic<int>>(
        static_cast<int>(CancelCause::kNone));
    CancellationToken run_token;

    TuningRequest attempt_request = base;
    attempt_request.cancel = run_token;
    if (injector_.options().enabled()) {
      const uint64_t id = job->id;
      attempt_request.fault_hook = [this, id, attempt, cause, run_token](
                                       const std::string& phase) mutable {
        const FaultKind kind = injector_.Decide(id, attempt, phase);
        if (kind == FaultKind::kNone) return;
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.faults_injected;
        }
        if (kind == FaultKind::kTransient) {
          throw TransientTuningError(std::string("injected fault at '") +
                                     phase + "'");
        }
        int expected = static_cast<int>(CancelCause::kNone);
        const CancelCause as_cause = kind == FaultKind::kForcedTimeout
                                         ? CancelCause::kForcedTimeout
                                         : CancelCause::kSpurious;
        cause->compare_exchange_strong(expected, static_cast<int>(as_cause));
        run_token.RequestCancel();
      };
    }

    uint64_t active_id = 0;
    {
      std::lock_guard<std::mutex> lock(active_mu_);
      active_id = next_active_id_++;
      ActiveRun run;
      run.user_flag = user_flag;
      run.run_token = run_token;
      run.has_deadline = job->has_deadline;
      run.deadline = job->deadline;
      run.cause = cause;
      active_[active_id] = std::move(run);
    }
    TuningResponse tuning = engine_->Tune(attempt_request);
    {
      std::lock_guard<std::mutex> lock(active_mu_);
      active_.erase(active_id);
    }

    if (tuning.status == TuningResponse::Status::kOk) {
      response.status = ServiceStatus::kOk;
      response.tuning = std::move(tuning);
      finish(std::move(response));
      return;
    }

    if (tuning.status == TuningResponse::Status::kCancelled) {
      const auto why = static_cast<CancelCause>(cause->load());
      if (why == CancelCause::kDeadline || why == CancelCause::kForcedTimeout) {
        // Cooperative wind-down delivered the best-so-far design.
        response.status = ServiceStatus::kDeadlineExceeded;
        response.tuning = std::move(tuning);
        finish(std::move(response));
        return;
      }
      if (why == CancelCause::kSpurious) {
        // Not a real stop request: retry on a fresh token.
        last = std::move(tuning);
        has_last = true;
        if (attempt == options_.max_attempts) {
          response.status = ServiceStatus::kError;
          response.error = "spurious cancellations exhausted the retry budget";
          response.tuning = std::move(last);
          finish(std::move(response));
          return;
        }
      } else {
        // kUser — or, defensively, an unattributed firing.
        response.status = ServiceStatus::kCancelled;
        response.tuning = std::move(tuning);
        finish(std::move(response));
        return;
      }
    } else {  // kError
      if (!tuning.retryable || attempt == options_.max_attempts) {
        response.status = ServiceStatus::kError;
        response.error = tuning.error;
        response.tuning = std::move(tuning);
        finish(std::move(response));
        return;
      }
      last = std::move(tuning);
      has_last = true;
    }

    // Capped exponential backoff before the next attempt, bounded by the
    // remaining deadline (the top of the loop then resolves expiry).
    double backoff = options_.backoff_base_ms;
    for (int k = 1; k < attempt; ++k) backoff *= 2.0;
    backoff = std::min(backoff, options_.backoff_cap_ms);
    backoff = std::min(backoff, std::max(0.0, remaining_ms()));
    if (backoff > 0.0) SleepFor(backoff);
  }

  // Unreachable: every exit above resolves. Kept as a terminal safety net
  // so no job can ever leave Execute unresolved.
  response.status = ServiceStatus::kError;
  response.error = "internal: retry loop exited without resolution";
  finish(std::move(response));
}

void TuningService::Resolve(const std::shared_ptr<Job>& job,
                            ServiceResponse response) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.completed;
    switch (response.status) {
      case ServiceStatus::kOk:
        ++stats_.ok;
        break;
      case ServiceStatus::kCancelled:
        ++stats_.cancelled;
        break;
      case ServiceStatus::kDeadlineExceeded:
        ++stats_.deadline_exceeded;
        break;
      case ServiceStatus::kError:
        ++stats_.errors;
        break;
      case ServiceStatus::kOverloaded:
        break;  // counted at admission, never reaches Resolve
    }
  }
  ResolveTicket(job->ticket, std::move(response));
}

void TuningService::ResolveTicket(const std::shared_ptr<Ticket>& ticket,
                                  ServiceResponse response) {
  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    ticket->response_ = std::move(response);
    ticket->done_ = true;
  }
  ticket->cv_.notify_all();
}

void TuningService::SleepFor(double ms) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_cv_.wait_for(
      lock,
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(ms)),
      [this] { return stopping_; });
}

ServiceStats TuningService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

int TuningService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

bool TuningService::degraded_mode() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_mode_;
}

}  // namespace capd
