#include "engine/advisor_engine.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "advisor/report.h"
#include "advisor/report_json.h"
#include "common/logging.h"

namespace capd {

AdvisorEngine::AdvisorEngine(const Database& db, EngineOptions options)
    : db_(&db),
      options_(std::move(options)),
      samples_(options_.sample_seed),
      mvs_(db, &samples_),
      optimizer_(db, CostModelParams{}),
      estimation_cache_(std::make_shared<EstimationCache>()) {
  optimizer_.set_mv_matcher(&mvs_);
}

ThreadPool* AdvisorEngine::PoolFor(int threads) {
  if (threads == 1) return nullptr;
  if (threads < 0) threads = 0;  // normalize: 0 = hardware concurrency
  CAPD_CHECK_LE(threads, kMaxTuningThreads);
  std::lock_guard<std::mutex> lock(pools_mu_);
  std::unique_ptr<ThreadPool>& pool = pools_[threads];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(threads);
  return pool.get();
}

TuningResponse AdvisorEngine::Tune(const TuningRequest& request) {
  TuningResponse response;
  response.strategy = request.strategy;

  const Strategy* strategy = StrategyRegistry::Global().Find(request.strategy);
  if (strategy == nullptr) {
    response.status = TuningResponse::Status::kError;
    response.error =
        StrategyRegistry::Global().UnknownStrategyMessage(request.strategy);
    return response;
  }

  if (!std::isfinite(request.budget.value) || request.budget.value < 0.0) {
    response.status = TuningResponse::Status::kError;
    response.error = "invalid budget: value must be finite and >= 0";
    return response;
  }
  const double budget_bytes = request.budget.ResolveBytes(
      static_cast<double>(db_->BaseDataBytes()));
  response.budget_bytes = budget_bytes;

  // Bound the thread counts before any pool exists (kMaxTuningThreads).
  const int search_threads = request.search_threads >= 0
                                 ? request.search_threads
                                 : options_.search_threads;
  const int estimation_threads = request.estimation_threads >= 0
                                     ? request.estimation_threads
                                     : options_.estimation_threads;
  auto too_many = [&](const char* field, int threads) {
    if (threads <= kMaxTuningThreads) return false;
    response.status = TuningResponse::Status::kError;
    response.error = std::string("invalid ") + field + ": " +
                     std::to_string(threads) + " threads, at most " +
                     std::to_string(kMaxTuningThreads);
    return true;
  };
  if (too_many("search_threads", search_threads) ||
      too_many("estimation_threads", estimation_threads)) {
    return response;
  }

  // Strategy base options + request knobs + engine-owned collaborators.
  AdvisorOptions options = strategy->MakeOptions();
  options.pool = PoolFor(search_threads);
  options.size_options.pool = PoolFor(estimation_threads);
  options.size_options.cache = estimation_cache_;
  if (request.enable_mv >= 0) options.enable_mv = request.enable_mv != 0;
  if (request.enable_partial >= 0) {
    options.enable_partial = request.enable_partial != 0;
  }
  options.trace = options.trace || request.trace;
  options.cancel = request.cancel.flag();
  // Deep cancellation: the estimation batches poll the same flag inside
  // their fraction probes and SampleCF leaves, so a deadline binds within
  // a long estimation phase, not just at its boundary.
  options.size_options.cancel = options.cancel;
  options.progress = request.progress;
  options.fault_hook = request.fault_hook;

  RequestScope scope = ScopeFor(options);
  try {
    SizeEstimator estimator(*db_, scope.mvs, ErrorModel(),
                            options.size_options);
    Advisor advisor(*db_, *scope.optimizer, &estimator, scope.mvs, options);
    response.result = strategy->Run(&advisor, request.workload, budget_bytes);
  } catch (const TransientTuningError& e) {
    response.status = TuningResponse::Status::kError;
    response.error = std::string("tuning failed (transient): ") + e.what();
    response.retryable = true;
    return response;
  } catch (const std::exception& e) {
    response.status = TuningResponse::Status::kError;
    response.error = std::string("tuning failed: ") + e.what();
    return response;
  }

  response.status = response.result.cancelled
                        ? TuningResponse::Status::kCancelled
                        : TuningResponse::Status::kOk;
  response.report =
      RenderTuningReport(response.result, scope.mvs, budget_bytes);
  response.json = RenderTuningReportJson(response.result, scope.mvs,
                                         budget_bytes, request.strategy);
  return response;
}

AdvisorEngine::RequestScope AdvisorEngine::ScopeFor(
    const AdvisorOptions& options) {
  RequestScope scope;
  if (!options.enable_mv) {
    scope.mvs = &mvs_;
    scope.optimizer = &optimizer_;
    return scope;
  }
  // MV-enabled runs register request-specific MV definitions (named after
  // the request's query ids) in the registry they tune against. Isolate
  // them in a per-request registry + optimizer, or one request's MVs would
  // leak into the next — breaking the fresh-stack identity contract.
  // Samples stay shared: they are pure per cache key.
  scope.request_mvs = std::make_unique<MVRegistry>(*db_, &samples_);
  scope.request_optimizer =
      std::make_unique<WhatIfOptimizer>(*db_, CostModelParams{});
  scope.request_optimizer->set_mv_matcher(scope.request_mvs.get());
  scope.mvs = scope.request_mvs.get();
  scope.optimizer = scope.request_optimizer.get();
  return scope;
}

AdvisorResult AdvisorEngine::TuneWithOptions(const Workload& workload,
                                             double budget_bytes,
                                             const AdvisorOptions& options) {
  RequestScope scope = ScopeFor(options);
  SizeEstimator estimator(*db_, scope.mvs, ErrorModel(), options.size_options);
  Advisor advisor(*db_, *scope.optimizer, &estimator, scope.mvs, options);
  return advisor.Tune(workload, budget_bytes);
}

}  // namespace capd
