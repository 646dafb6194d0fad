// The what-if optimizer: Cost(statement, hypothetical configuration) — the
// API every physical design tool is built on (Section 3). Access paths:
// heap scan, (covering) index scan, index seek with optional RID lookups,
// partial-index use when the query's predicates subsume the index filter,
// and MV-index answering via a pluggable matcher (implemented in src/mv).
// The cost model is compression aware per Appendix A. One costing body
// reads a prepared statement and the configuration's MemberList; the
// Configuration overloads prepare and forward to it.
#ifndef CAPD_OPTIMIZER_WHAT_IF_H_
#define CAPD_OPTIMIZER_WHAT_IF_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "optimizer/configuration.h"
#include "optimizer/cost_model.h"
#include "query/query.h"

namespace capd {

// Lets the optimizer ask whether an index on a materialized view can answer
// a query (implemented by MVRegistry in src/mv to keep layering acyclic).
class MVMatcher {
 public:
  virtual ~MVMatcher() = default;

  struct MVAccess {
    double mv_tuples = 0.0;      // rows in the MV
    double selected_frac = 1.0;  // fraction the query reads from the MV
    size_t used_columns = 1;     // columns the query touches in the MV
    bool leading_key_seek = false;  // index key supports the residual filter
  };

  // Returns the access description if `idx` (an index on an MV) can answer
  // `query`; std::nullopt otherwise.
  virtual std::optional<MVAccess> Match(const IndexDef& idx,
                                        const SelectQuery& query) const = 0;

  // If `object` is a registered MV, the fact table it is defined over
  // (INSERTs into that table must maintain the MV's indexes).
  virtual std::optional<std::string> FactTableOf(
      const std::string& object) const {
    (void)object;
    return std::nullopt;
  }
};

// Breakdown of one costed plan (useful for tests and examples).
struct PlanCost {
  double io = 0.0;
  double cpu = 0.0;
  std::string access_path;  // human-readable description of the chosen plan

  double total() const { return io + cpu; }
};

// One table a statement touches, bound to the catalog: everything the cost
// model reads about it that no configuration can change.
struct PreparedTable {
  const Table* table = nullptr;
  std::vector<ColumnFilter> preds;  // predicates on this table, query order
  std::vector<double> pred_sel;     // FilterSelectivity of each predicate
  std::vector<std::string> cols_used;
  std::vector<std::string> join_keys;  // dim keys when joined as dimension
  double rows = 0.0;
  double heap_io = 0.0;  // heap-scan cost
  double heap_cpu = 0.0;
};

// A statement bound once (WhatIfOptimizer::Prepare) and then costed under
// any number of configurations. References the statement and the
// database's tables, which must outlive it.
struct PreparedStatement {
  const Statement* stmt = nullptr;
  // SELECT: the root table first, then each distinct dimension table;
  // INSERT: the loaded table.
  std::vector<PreparedTable> tables;
  std::vector<size_t> join_tables;  // per join clause, its entry in tables
  double root_sel = 1.0;  // SELECT: product of tables[0].pred_sel, in order
};

class WhatIfOptimizer {
 public:
  WhatIfOptimizer(const Database& db, CostModelParams params)
      : db_(&db), params_(params) {}

  // `mv_matcher` may be null (MV indexes in the configuration are ignored).
  void set_mv_matcher(const MVMatcher* matcher) { mv_matcher_ = matcher; }
  const MVMatcher* mv_matcher() const { return mv_matcher_; }

  // Binds `stmt` to the catalog: predicates, their selectivities, used
  // columns, row counts and heap-scan costs per touched table.
  PreparedStatement Prepare(const Statement& stmt) const;

  // Optimizer-estimated cost of the statement under the configuration
  // (unweighted; callers apply Statement::weight). The prepared overload is
  // the costing body: it does no catalog, histogram or string work, and
  // the others forward to it, so all three agree to the bit.
  double Cost(const Statement& stmt, const Configuration& config) const;
  double Cost(const PreparedStatement& stmt, const MemberList& members) const;
  PlanCost CostWithPlan(const Statement& stmt, const Configuration& config) const;

  // Sum of weight * Cost over the workload.
  double WorkloadCost(const Workload& workload,
                      const Configuration& config) const;

  // Estimated selectivity of `filter` on `table` (histograms within a
  // column; a conjunction multiplies, assuming independent columns).
  // Exposed for candidate generation and partial-index size estimation.
  double FilterSelectivity(const std::string& table,
                           const ColumnFilter& filter) const;

  const CostModelParams& params() const { return params_; }

 private:
  // A costed plan and how it reads its data; only CostWithPlan renders the
  // description into PlanCost::access_path.
  struct Plan {
    enum class Path { kHeapScan, kIndexScan, kIndexSeek, kIndexSeekLookup,
                      kMV, kBulkInsert };
    double io = 0.0;
    double cpu = 0.0;
    Path path = Path::kHeapScan;
    const Table* table = nullptr;     // heap scan / bulk insert
    const IndexDef* index = nullptr;  // every other path

    double total() const { return io + cpu; }
  };

  Plan CostPlan(const PreparedStatement& stmt, const MemberList& members) const;
  Plan CostSelect(const PreparedStatement& stmt,
                  const MemberList& members) const;
  Plan CostInsert(const PreparedStatement& stmt,
                  const MemberList& members) const;

  // Cheapest access path producing this table's portion of the query.
  Plan BestTableAccess(const PreparedTable& table,
                       const MemberList& members) const;
  // Cost of using `idx` for this table's portion, or nullopt if unusable.
  std::optional<Plan> IndexAccessCost(const PreparedTable& table,
                                      const PhysicalIndexEstimate& idx) const;

  const Database* db_;
  CostModelParams params_;
  const MVMatcher* mv_matcher_ = nullptr;
};

// True if query predicates `preds` imply the partial-index filter `filter`
// (i.e. every row the query needs is inside the partial index).
bool PredicatesSubsumeFilter(const std::vector<ColumnFilter>& preds,
                             const ColumnFilter& filter);

}  // namespace capd

#endif  // CAPD_OPTIMIZER_WHAT_IF_H_
