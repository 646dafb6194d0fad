// Materialized-view definitions (Appendix B): FK-join views over a fact
// table with optional filters, GROUP BY and aggregation. Every MV carries a
// hidden COUNT(*) column (required for incremental maintenance), which is
// exactly the frequency statistic the Adaptive Estimator consumes.
#ifndef CAPD_MV_MV_DEF_H_
#define CAPD_MV_MV_DEF_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "query/query.h"

namespace capd {

// Name of the hidden count column in materialized MVs and MV samples.
inline constexpr char kMVCountColumn[] = "__count";

struct MVDef {
  std::string name;
  std::string fact_table;
  std::vector<JoinClause> joins;
  std::vector<ColumnFilter> predicates;   // WHERE, on fact or dim columns
  std::vector<std::string> group_by;      // output key columns
  std::vector<AggExpr> aggregates;        // SUM-style aggregate columns

  // Aggregate output column name ("sum_<col>").
  static std::string AggColumnName(const AggExpr& agg);

  // Output schema: group-by columns (original types/widths), one 8-byte
  // double per aggregate, and the hidden count column.
  Schema OutputSchema(const Database& db) const;

  // For people: drops the join keys and prints literals rounded.
  std::string ToString() const;
  // Everything the view's rows depend on, rendered exactly and
  // unambiguously: fact table, joins with their keys, predicates with
  // exact literals, group-by columns and aggregates (not the name). Two
  // definitions render alike only if they define the same rows.
  std::string Identity() const;
};

// Materializes the MV exactly over the full database (ground truth for the
// Table 1 experiment and for final verification).
std::unique_ptr<Table> MaterializeMV(const Database& db, const MVDef& def);

// Group-by + aggregate over any table's rows (shared by full
// materialization and MV-sample creation). `input` must already contain
// all referenced columns (e.g. a join synopsis).
std::unique_ptr<Table> AggregateRows(const Table& input, const MVDef& def,
                                     const Database& db);

}  // namespace capd

#endif  // CAPD_MV_MV_DEF_H_
