#include "engine/advisor_engine.h"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "advisor/report.h"
#include "advisor/report_json.h"
#include "common/logging.h"

namespace capd {
namespace {

// What `stmt` names that `db` lacks, or "" when every name resolves. The
// catalog and query layers CHECK-fail on an unknown name, so requests are
// checked here, before any strategy runs.
std::string UnresolvedName(const Database& db, const Statement& stmt) {
  if (stmt.type == StatementType::kInsert) {
    if (db.HasTable(stmt.insert.table)) return "";
    return "unknown table " + stmt.insert.table;
  }
  const SelectQuery& q = stmt.select;
  if (!db.HasTable(q.table)) return "unknown table " + q.table;
  const Schema& root = db.table(q.table).schema();
  std::vector<const Schema*> schemas = {&root};
  for (const JoinClause& j : q.joins) {
    if (!db.HasTable(j.dim_table)) return "unknown table " + j.dim_table;
    const Schema& dim = db.table(j.dim_table).schema();
    if (!root.HasColumn(j.fk_column)) {
      return "unknown join column " + q.table + "." + j.fk_column;
    }
    if (!dim.HasColumn(j.dim_key)) {
      return "unknown join column " + j.dim_table + "." + j.dim_key;
    }
    schemas.push_back(&dim);
  }
  std::vector<const std::string*> columns;
  for (const ColumnFilter& p : q.predicates) columns.push_back(&p.column);
  for (const std::string& c : q.projected) columns.push_back(&c);
  for (const AggExpr& a : q.aggregates) columns.push_back(&a.column);
  for (const std::string& c : q.group_by) columns.push_back(&c);
  for (const std::string& c : q.order_by) columns.push_back(&c);
  for (const std::string* c : columns) {
    bool resolves = false;
    for (const Schema* s : schemas) resolves = resolves || s->HasColumn(*c);
    if (!resolves) return "unknown column " + *c;
  }
  return "";
}

}  // namespace

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
  // A NaN, infinite or negative weight would poison every workload cost,
  // and an unknown name would abort the process.
  for (const Statement& stmt : request.workload.statements) {
    if (!std::isfinite(stmt.weight) || stmt.weight < 0.0) {
      response.status = TuningResponse::Status::kError;
      response.error = "invalid weight of statement " + stmt.id + ": " +
                       std::to_string(stmt.weight) +
                       ", must be finite and >= 0";
      return response;
    }
    const std::string unresolved = UnresolvedName(*db_, stmt);
    if (!unresolved.empty()) {
      response.status = TuningResponse::Status::kError;
      response.error = "invalid statement " + stmt.id + ": " + unresolved;
      return response;
    }
  }
  const double budget_bytes = request.budget.ResolveBytes(
      static_cast<double>(db_->BaseDataBytes()));
  response.budget_bytes = budget_bytes;

  // Bound the thread count before any pool exists (kMaxTuningThreads).
  const int estimation_threads = request.estimation_threads >= 0
                                     ? request.estimation_threads
                                     : options_.estimation_threads;
  if (estimation_threads > kMaxTuningThreads) {
    response.status = TuningResponse::Status::kError;
    response.error = "invalid estimation_threads: " +
                     std::to_string(estimation_threads) + " threads, at most " +
                     std::to_string(kMaxTuningThreads);
    return response;
  }

  // Strategy base options + request knobs + engine-owned collaborators.
  AdvisorOptions options = strategy->MakeOptions();
  options.size_options.pool = PoolFor(estimation_threads);
  options.size_options.cache = estimation_cache_;
  options.enable_mv = request.enable_mv;
  options.enable_partial = request.enable_partial;
  options.cancel = request.cancel.flag();
  // Deep cancellation: the estimation batches poll the same flag inside
  // their fraction probes and SampleCF leaves, so a deadline binds within
  // a long estimation phase, not just at its boundary.
  options.size_options.cancel = options.cancel;
  options.progress = request.progress;

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
