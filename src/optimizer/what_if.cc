#include "optimizer/what_if.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace capd {
namespace {

// Numeric [lo, hi] range selected by a filter, given column stats.
void FilterRange(const ColumnFilter& f, const ColumnStats& cs, double* lo,
                 double* hi) {
  switch (f.op) {
    case FilterOp::kEq:
      *lo = *hi = f.lo.NumericKey();
      return;
    case FilterOp::kLt:
    case FilterOp::kLe:
      *lo = cs.min_key;
      *hi = f.lo.NumericKey();
      return;
    case FilterOp::kGt:
    case FilterOp::kGe:
      *lo = f.lo.NumericKey();
      *hi = cs.max_key;
      return;
    case FilterOp::kBetween:
      *lo = f.lo.NumericKey();
      *hi = f.hi.NumericKey();
      return;
  }
}

}  // namespace

bool PredicatesSubsumeFilter(const std::vector<ColumnFilter>& preds,
                             const ColumnFilter& filter) {
  // A predicate on the same column whose range is inside the filter's range
  // implies the filter. Ranges are compared on the numeric key; unbounded
  // sides are +-infinity.
  auto range_of = [](const ColumnFilter& f, double* lo, double* hi) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (f.op) {
      case FilterOp::kEq:
        *lo = *hi = f.lo.NumericKey();
        return;
      case FilterOp::kLt:
      case FilterOp::kLe:
        *lo = -kInf;
        *hi = f.lo.NumericKey();
        return;
      case FilterOp::kGt:
      case FilterOp::kGe:
        *lo = f.lo.NumericKey();
        *hi = kInf;
        return;
      case FilterOp::kBetween:
        *lo = f.lo.NumericKey();
        *hi = f.hi.NumericKey();
        return;
    }
  };
  double flo = 0.0, fhi = 0.0;
  range_of(filter, &flo, &fhi);
  for (const ColumnFilter& p : preds) {
    if (p.column != filter.column) continue;
    double plo = 0.0, phi = 0.0;
    range_of(p, &plo, &phi);
    if (plo >= flo && phi <= fhi) return true;
  }
  return false;
}

double WhatIfOptimizer::FilterSelectivity(const std::string& table,
                                          const ColumnFilter& filter) const {
  const ColumnStats& cs = db_->stats(table).column(filter.column);
  if (cs.num_rows == 0) return 0.0;
  if (filter.op == FilterOp::kEq) {
    return 1.0 / static_cast<double>(std::max<uint64_t>(cs.distinct, 1));
  }
  double lo = 0.0, hi = 0.0;
  FilterRange(filter, cs, &lo, &hi);
  return cs.histogram.SelectivityBetween(lo, hi);
}

PreparedStatement WhatIfOptimizer::Prepare(const Statement& stmt) const {
  PreparedStatement prepared;
  prepared.stmt = &stmt;
  const bool select = stmt.type == StatementType::kSelect;
  // Entry of `name` in prepared.tables, bound on first sight.
  auto bind = [&](const std::string& name) -> size_t {
    for (size_t i = 0; i < prepared.tables.size(); ++i) {
      if (prepared.tables[i].table->name() == name) return i;
    }
    PreparedTable t;
    t.table = &db_->table(name);
    t.rows = static_cast<double>(t.table->num_rows());
    // A heap scan always reads everything.
    t.heap_io = params_.seq_page_io * static_cast<double>(t.table->HeapPages());
    t.heap_cpu = params_.cpu_per_tuple_read * t.rows;
    if (select) {
      t.preds = stmt.select.PredicatesOn(name, *db_);
      for (const ColumnFilter& p : t.preds) {
        t.pred_sel.push_back(FilterSelectivity(name, p));
      }
      t.cols_used = stmt.select.ColumnsUsedOn(name, *db_);
    }
    prepared.tables.push_back(std::move(t));
    return prepared.tables.size() - 1;
  };
  if (!select) {
    bind(stmt.insert.table);
    return prepared;
  }
  bind(stmt.select.table);
  const std::vector<JoinClause>& joins = stmt.select.joins;
  for (size_t j = 0; j < joins.size(); ++j) {
    const size_t t = bind(joins[j].dim_table);
    prepared.join_tables.push_back(t);
    size_t first = 0;
    while (prepared.join_tables[first] != t ||
           joins[first].dim_key != joins[j].dim_key) {
      ++first;
    }
    prepared.join_first.push_back(first);
  }
  for (const double s : prepared.tables.front().pred_sel) {
    prepared.root_sel *= s;
  }
  return prepared;
}

std::optional<AccessPlan> WhatIfOptimizer::IndexAccessCost(
    const PreparedTable& table, const PhysicalIndexEstimate& idx) const {
  const std::vector<ColumnFilter>& preds = table.preds;

  // Partial index: usable only when the query cannot need rows outside it.
  double filter_sel = 1.0;
  if (idx.def.filter.has_value()) {
    if (!PredicatesSubsumeFilter(preds, *idx.def.filter)) return std::nullopt;
    filter_sel = FilterSelectivity(table.table->name(), *idx.def.filter);
  }

  const Schema& base = table.table->schema();
  size_t used_in_index = 0;
  for (const std::string& c : table.cols_used) {
    if (idx.def.Stores(base, c)) ++used_in_index;
  }
  const bool covering = used_in_index == table.cols_used.size();

  // Selectivity of predicate k *within the index's population*: for the
  // partial-index filter column the filter is already applied, so condition
  // on it; other columns are treated as independent of the filter.
  auto sel_in_index = [&](size_t k) {
    double s = table.pred_sel[k];
    if (idx.def.filter.has_value() &&
        preds[k].column == idx.def.filter->column && filter_sel > 0.0) {
      s = std::min(1.0, s / filter_sel);
    }
    return s;
  };

  // Fraction of index entries reached through the sargable key prefix. A
  // BITMAP structure keys per-value bitmaps, so only equality predicates
  // seek it — range predicates fall through to the covering-scan path.
  const bool bitmap = idx.def.compression == CompressionKind::kBitmap;
  double prefix_frac = 1.0;
  size_t sargable = 0;
  for (const std::string& key_col : idx.def.key_columns) {
    bool found = false;
    for (size_t k = 0; k < preds.size(); ++k) {
      if (preds[k].column != key_col) continue;
      if (bitmap && preds[k].op != FilterOp::kEq) continue;
      prefix_frac *= sel_in_index(k);
      found = true;
      break;
    }
    if (!found) break;
    ++sargable;
  }
  const bool seekable = sargable > 0;
  if (!seekable && !covering) return std::nullopt;

  // Fraction of index entries satisfying every predicate resolvable inside
  // the index (these survive to the RID-lookup stage).
  double stored_frac = 1.0;
  for (size_t k = 0; k < preds.size(); ++k) {
    if (idx.def.Stores(base, preds[k].column)) stored_frac *= sel_in_index(k);
  }

  const double tuples = std::max(idx.tuples, 1.0);
  const double pages = std::max(idx.pages(), 1.0);
  const double beta = params_.Beta(idx.def.compression);

  AccessPlan best;
  best.io = std::numeric_limits<double>::infinity();

  if (covering) {
    AccessPlan scan;
    scan.io = params_.seq_page_io * pages;
    scan.cpu = tuples * (params_.cpu_per_tuple_read +
                         static_cast<double>(used_in_index) * beta);
    scan.path = AccessPlan::Path::kIndexScan;
    if (scan.total() < best.total()) best = scan;
  }

  if (seekable) {
    const double entries = tuples * prefix_frac;
    AccessPlan seek;
    seek.io = params_.random_page_io * 2.0 +
              params_.seq_page_io * std::max(1.0, pages * prefix_frac);
    seek.cpu = entries * (params_.cpu_per_tuple_read +
                          static_cast<double>(used_in_index) * beta);
    if (bitmap) {
      // One WAH expansion + rank/select AND per sargable equality key.
      seek.cpu += params_.bitmap_probe_cpu * static_cast<double>(sargable);
    }
    seek.path = AccessPlan::Path::kIndexSeek;
    if (!covering) {
      const double lookups = tuples * std::min(1.0, stored_frac);
      seek.io += params_.random_page_io * lookups;
      seek.cpu += params_.cpu_per_tuple_read * lookups;
      seek.path = AccessPlan::Path::kIndexSeekLookup;
    }
    if (seek.total() < best.total()) best = seek;
  }

  if (best.io == std::numeric_limits<double>::infinity()) return std::nullopt;
  best.index = &idx.def;
  return best;
}

IndexUse WhatIfOptimizer::Use(const PreparedStatement& stmt,
                              const PhysicalIndexEstimate& idx) const {
  IndexUse use;
  if (stmt.stmt->type == StatementType::kInsert) {
    const InsertStatement& ins = stmt.stmt->insert;
    // Every index on the loaded table is maintained, and so is every index
    // on an MV over it: each inserted row updates one group (count/sums).
    const bool on_table = idx.def.object == ins.table;
    if (!on_table && (mv_matcher_ == nullptr ||
                      mv_matcher_->FactTableOf(idx.def.object) != ins.table)) {
      return use;
    }
    use.maintained = true;
    // Rows entering the index: a partial index admits its filter's share.
    double enter_frac = 1.0;
    if (on_table && idx.def.filter.has_value()) {
      enter_frac = FilterSelectivity(ins.table, *idx.def.filter);
    }
    const double rows_idx = static_cast<double>(ins.num_rows) * enter_frac;
    const double alpha = params_.Alpha(idx.def.compression);
    // CPUCost_update = BaseCPUCost + alpha * #tuples_written (Appendix A.1).
    use.insert_cpu = rows_idx * (params_.cpu_per_tuple_write + alpha);
    // Sequential write volume of a table index's new entries...
    if (on_table) {
      const double bytes_per_tuple = idx.bytes / std::max(idx.tuples, 1.0);
      use.insert_io =
          params_.seq_page_io * rows_idx * bytes_per_tuple / kPageCapacity;
    }
    // ...plus scattered B-tree leaf maintenance, damped by buffer-pool hits.
    const double pages = std::max(idx.pages(), 1.0);
    const double touched = pages * (1.0 - std::exp(-rows_idx / pages));
    use.maintenance_io = params_.random_page_io * touched *
                         params_.index_maintenance_io_factor;
    return use;
  }

  const SelectQuery& q = stmt.stmt->select;
  for (uint32_t t = 0; t < stmt.tables.size(); ++t) {
    if (stmt.tables[t].table->name() == idx.def.object) use.table = t;
  }
  if (use.table != IndexUse::kNone) {
    const PreparedTable& table = stmt.tables[use.table];
    use.replaces_heap = idx.def.clustered;
    use.access = IndexAccessCost(table, idx);
    // Index nested loops: a per-row seek into a dimension index keyed on
    // the join key. A partial index never serves as the probe.
    if (!idx.def.filter.has_value() && !idx.def.key_columns.empty()) {
      for (uint32_t j = 0; j < q.joins.size(); ++j) {
        if (stmt.join_tables[j] == use.table &&
            q.joins[j].dim_key == idx.def.key_columns[0]) {
          use.probe_join = j;
          break;
        }
      }
    }
    if (use.probe_join != IndexUse::kNone) {
      const double root_rows = stmt.tables.front().rows * stmt.root_sel;
      use.probe.io = root_rows * params_.random_page_io;
      const double beta = params_.Beta(idx.def.compression);
      use.probe.cpu =
          root_rows * (params_.cpu_per_tuple_read +
                       static_cast<double>(table.cols_used.size()) * beta);
    }
    return use;  // an index on the statement's own table is on no MV
  }

  // Alternative: answer the whole query from an MV index.
  if (mv_matcher_ == nullptr) return use;
  std::optional<MVMatcher::MVAccess> access = mv_matcher_->Match(idx.def, q);
  if (!access.has_value()) return use;
  AccessPlan mv_plan;
  const double mv_pages = std::max(idx.pages(), 1.0);
  const double frac = access->selected_frac;
  if (access->leading_key_seek && frac < 1.0) {
    mv_plan.io = params_.random_page_io * 2.0 +
                 params_.seq_page_io * std::max(1.0, mv_pages * frac);
  } else {
    mv_plan.io = params_.seq_page_io * mv_pages;
  }
  const double beta = params_.Beta(idx.def.compression);
  mv_plan.cpu = access->mv_tuples * frac *
                (params_.cpu_per_tuple_read +
                 static_cast<double>(access->used_columns) * beta);
  mv_plan.path = AccessPlan::Path::kMV;
  mv_plan.index = &idx.def;
  use.mv = mv_plan;
  return use;
}

AccessPlan WhatIfOptimizer::BestTableAccess(const PreparedStatement& stmt,
                                            size_t table,
                                            const UseList& uses) const {
  const PreparedTable& t = stmt.tables[table];
  AccessPlan best;
  bool have = false;
  // The heap exists unless a clustered index replaced it.
  if (std::none_of(uses.begin(), uses.end(), [&](const IndexUse* use) {
        return use->table == table && use->replaces_heap;
      })) {
    best = AccessPlan{t.heap_io, t.heap_cpu, nullptr,
                      AccessPlan::Path::kHeapScan};
    have = true;
  }
  for (const IndexUse* use : uses) {
    if (use->table != table || !use->access.has_value()) continue;
    if (!have || use->access->total() < best.total()) {
      best = *use->access;
      have = true;
    }
  }
  CAPD_CHECK(have) << "no access path for table " << t.table->name()
                   << " (clustered index removed the heap but is unusable?)";
  return best;
}

AccessPlan WhatIfOptimizer::CostSelect(const PreparedStatement& stmt,
                                       const UseList& uses) const {
  const SelectQuery& q = stmt.stmt->select;
  const PreparedTable& root = stmt.tables.front();
  // Base relational plan: root access + one join at a time.
  AccessPlan plan = BestTableAccess(stmt, 0, uses);
  const double root_rows = root.rows * stmt.root_sel;

  for (size_t j = 0; j < q.joins.size(); ++j) {
    const size_t dim_table = stmt.join_tables[j];
    const PreparedTable& dim = stmt.tables[dim_table];
    const AccessPlan dim_scan = BestTableAccess(stmt, dim_table, uses);
    // Hash join: build on the dimension side, probe with root rows.
    AccessPlan hash = dim_scan;
    hash.cpu += params_.cpu_per_tuple_read * (dim.rows + root_rows);

    // Index nested loops, if the configuration has a probe for this join.
    AccessPlan nl;
    nl.io = std::numeric_limits<double>::infinity();
    for (const IndexUse* use : uses) {
      if (use->probe_join == stmt.join_first[j] &&
          use->probe.total() < nl.total()) {
        nl = use->probe;
      }
    }

    const AccessPlan& join = nl.total() < hash.total() ? nl : hash;
    plan.io += join.io;
    plan.cpu += join.cpu;
  }

  // Grouping/aggregation/output CPU.
  if (!q.group_by.empty() || !q.aggregates.empty()) {
    plan.cpu += params_.cpu_per_tuple_read * root_rows;
  }

  // Alternative: answer the whole query from an MV index.
  for (const IndexUse* use : uses) {
    if (use->mv.has_value() && use->mv->total() < plan.total()) {
      plan = *use->mv;
    }
  }
  return plan;
}

AccessPlan WhatIfOptimizer::CostInsert(const PreparedStatement& stmt,
                                       const UseList& uses) const {
  const InsertStatement& ins = stmt.stmt->insert;
  const Table& t = *stmt.tables.front().table;
  const double rows = static_cast<double>(ins.num_rows);
  AccessPlan plan;
  plan.path = AccessPlan::Path::kBulkInsert;

  // Heap (or clustered index) append.
  const double heap_row_bytes = t.schema().RowWidth() + kRowOverhead;
  plan.io = params_.seq_page_io * rows * heap_row_bytes / kPageCapacity;
  plan.cpu = params_.cpu_per_tuple_write * rows;

  // Each maintained index adds its terms in configuration order (x + 0.0
  // is x for the non-negative io, so an MV index's zero sequential term
  // changes no bit).
  for (const IndexUse* use : uses) {
    if (!use->maintained) continue;
    plan.cpu += use->insert_cpu;
    plan.io += use->insert_io;
    plan.io += use->maintenance_io;
  }
  return plan;
}

AccessPlan WhatIfOptimizer::CostPlan(const PreparedStatement& stmt,
                                     const UseList& uses) const {
  return stmt.stmt->type == StatementType::kInsert ? CostInsert(stmt, uses)
                                                   : CostSelect(stmt, uses);
}

AccessPlan WhatIfOptimizer::CostMembers(const PreparedStatement& stmt,
                                        const Configuration& config) const {
  std::vector<IndexUse> uses;
  uses.reserve(config.size());
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    uses.push_back(Use(stmt, idx));
  }
  UseList list;
  list.reserve(uses.size());
  for (const IndexUse& use : uses) list.push_back(&use);
  return CostPlan(stmt, list);
}

PlanCost WhatIfOptimizer::CostWithPlan(const Statement& stmt,
                                       const Configuration& config) const {
  static const char* const kPathPrefix[] = {  // indexed by AccessPlan::Path
      "heap scan(", "index scan(", "index seek(", "index seek+lookup(", "MV ",
      "bulk insert("};
  const PreparedStatement prepared = Prepare(stmt);
  const AccessPlan plan = CostMembers(prepared, config);
  PlanCost cost;
  cost.io = plan.io;
  cost.cpu = plan.cpu;
  cost.access_path = kPathPrefix[static_cast<int>(plan.path)] +
                     (plan.index != nullptr
                          ? plan.index->ToString()
                          : prepared.tables.front().table->name()) +
                     (plan.path == AccessPlan::Path::kMV ? "" : ")");
  return cost;
}

double WhatIfOptimizer::Cost(const PreparedStatement& stmt,
                             const UseList& uses) const {
  return CostPlan(stmt, uses).total();
}

double WhatIfOptimizer::Cost(const Statement& stmt,
                             const Configuration& config) const {
  return CostMembers(Prepare(stmt), config).total();
}

double WhatIfOptimizer::WorkloadCost(const Workload& workload,
                                     const Configuration& config) const {
  double total = 0.0;
  for (const Statement& s : workload.statements) {
    total += s.weight * Cost(s, config);
  }
  return total;
}

}  // namespace capd
