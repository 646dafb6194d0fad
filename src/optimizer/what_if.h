// The what-if optimizer: Cost(statement, hypothetical configuration) — the
// API every physical design tool is built on (Section 3). Access paths:
// heap scan, (covering) index scan, index seek with optional RID lookups,
// partial-index use when the query's predicates subsume the index filter,
// and MV-index answering via a pluggable matcher (implemented in src/mv).
// The cost model is compression aware per Appendix A.
//
// Costing runs in two steps, in the manner of INUM (Papadomanolakis, Dash
// and Ailamaki, VLDB 2007). Use(prepared, estimate) computes everything one
// index contributes to one prepared statement that no configuration can
// change: its access plan, its index-NL probe, its MV plan, its INSERT
// maintenance terms. The one costing body then combines a configuration's
// uses, in configuration order, with nothing but comparisons and sums. The
// body reads nothing of a use whose changes_plan() is false, so the use is
// also the one place that decides which indexes can move a statement's
// cost. The advisor's search computes the use of each candidate for each
// statement once per tune and keeps those that change the plan
// (cost_cache.h); the Configuration overloads compute their members' uses
// per call and run the same body, so all agree to the bit.
#ifndef CAPD_OPTIMIZER_WHAT_IF_H_
#define CAPD_OPTIMIZER_WHAT_IF_H_

#include <cstdint>
#include <limits>
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
  // Per join clause, the first clause joining the same entry on the same
  // dimension key: an index-NL probe serves both clauses or neither.
  std::vector<size_t> join_first;
  double root_sel = 1.0;  // SELECT: product of tables[0].pred_sel, in order
};

// A costed plan and how it reads its data; only CostWithPlan renders the
// description into PlanCost::access_path. A heap scan or bulk insert that
// ends up as a statement's plan is always on its first prepared table.
struct AccessPlan {
  enum class Path : uint8_t { kHeapScan, kIndexScan, kIndexSeek,
                              kIndexSeekLookup, kMV, kBulkInsert };
  double io = 0.0;
  double cpu = 0.0;
  const IndexDef* index = nullptr;  // every path but heap scan/bulk insert
  Path path = Path::kHeapScan;

  double total() const { return io + cpu; }
};

// Everything one index contributes to one prepared statement that no
// configuration can change (WhatIfOptimizer::Use). Holds the address of
// the index's IndexDef, which must outlive it.
struct IndexUse {
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // SELECT. The index's entry in PreparedStatement::tables (kNone when the
  // statement does not touch its object), and the first join clause it
  // serves as an index-NL probe (kNone if none; it serves every clause
  // whose join_first is this one).
  uint32_t table = kNone;
  uint32_t probe_join = kNone;
  // SELECT. Whether it replaces its entry's heap (a clustered index).
  bool replaces_heap = false;
  // INSERT. Whether the index is maintained (it sits on the loaded table,
  // or on an MV over it).
  bool maintained = false;

  // SELECT. The access path it offers on its entry, the probe's cost, and
  // the plan answering the whole query from this MV index.
  std::optional<AccessPlan> access;
  AccessPlan probe;
  std::optional<AccessPlan> mv;

  // INSERT. The terms a maintained index adds to the plan, in order.
  double insert_cpu = 0.0;
  double insert_io = 0.0;       // sequential write of new entries; 0 for MVs
  double maintenance_io = 0.0;  // scattered leaf maintenance

  // True if the costing body reads this use: the index is maintained,
  // replaces a heap, offers an access plan, probes a join or answers from
  // an MV. Leaving out a use for which this is false changes no cost bit.
  bool changes_plan() const {
    return maintained || replaces_heap || access.has_value() ||
           probe_join != kNone || mv.has_value();
  }
};

// A configuration's uses for one statement, in configuration order.
using UseList = std::vector<const IndexUse*>;

class WhatIfOptimizer {
 public:
  WhatIfOptimizer(const Database& db, CostModelParams params)
      : db_(&db), params_(params) {}

  // `mv_matcher` may be null (MV indexes in the configuration are ignored).
  void set_mv_matcher(const MVMatcher* matcher) { mv_matcher_ = matcher; }

  // Binds `stmt` to the catalog: predicates, their selectivities, used
  // columns, row counts and heap-scan costs per touched table.
  PreparedStatement Prepare(const Statement& stmt) const;

  // What `idx` contributes to `stmt` under any configuration. Reads the MV
  // matcher set now; the use references `stmt`'s tables and `idx.def`.
  IndexUse Use(const PreparedStatement& stmt,
               const PhysicalIndexEstimate& idx) const;

  // Optimizer-estimated cost of the statement under the configuration
  // (unweighted; callers apply Statement::weight). The UseList overload is
  // the costing body: it combines the uses with comparisons and sums only,
  // and the others compute their members' uses and call it, so all agree
  // to the bit. A use left out of `uses` must be one whose changes_plan()
  // is false (cost_cache.h leaves those out).
  double Cost(const Statement& stmt, const Configuration& config) const;
  double Cost(const PreparedStatement& stmt, const UseList& uses) const;
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
  // The costing body over a configuration's uses.
  AccessPlan CostPlan(const PreparedStatement& stmt, const UseList& uses) const;
  AccessPlan CostSelect(const PreparedStatement& stmt,
                        const UseList& uses) const;
  AccessPlan CostInsert(const PreparedStatement& stmt,
                        const UseList& uses) const;
  // Cheapest access path producing the portion of the query on
  // stmt.tables[table].
  AccessPlan BestTableAccess(const PreparedStatement& stmt, size_t table,
                             const UseList& uses) const;
  // Cost of using `idx` for this table's portion, or nullopt if unusable.
  std::optional<AccessPlan> IndexAccessCost(
      const PreparedTable& table, const PhysicalIndexEstimate& idx) const;
  // CostPlan over the uses of `config`'s members, computed here.
  AccessPlan CostMembers(const PreparedStatement& stmt,
                         const Configuration& config) const;

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
