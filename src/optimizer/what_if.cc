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
  for (const JoinClause& j : stmt.select.joins) {
    const size_t t = bind(j.dim_table);
    prepared.tables[t].join_keys.push_back(j.dim_key);
    prepared.join_tables.push_back(t);
  }
  for (const double s : prepared.tables.front().pred_sel) {
    prepared.root_sel *= s;
  }
  return prepared;
}

std::optional<WhatIfOptimizer::Plan> WhatIfOptimizer::IndexAccessCost(
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

  Plan best;
  best.io = std::numeric_limits<double>::infinity();

  if (covering) {
    Plan scan;
    scan.io = params_.seq_page_io * pages;
    scan.cpu = tuples * (params_.cpu_per_tuple_read +
                         static_cast<double>(used_in_index) * beta);
    scan.path = Plan::Path::kIndexScan;
    if (scan.total() < best.total()) best = scan;
  }

  if (seekable) {
    const double entries = tuples * prefix_frac;
    Plan seek;
    seek.io = params_.random_page_io * 2.0 +
              params_.seq_page_io * std::max(1.0, pages * prefix_frac);
    seek.cpu = entries * (params_.cpu_per_tuple_read +
                          static_cast<double>(used_in_index) * beta);
    if (bitmap) {
      // One WAH expansion + rank/select AND per sargable equality key.
      seek.cpu += params_.bitmap_probe_cpu * static_cast<double>(sargable);
    }
    seek.path = Plan::Path::kIndexSeek;
    if (!covering) {
      const double lookups = tuples * std::min(1.0, stored_frac);
      seek.io += params_.random_page_io * lookups;
      seek.cpu += params_.cpu_per_tuple_read * lookups;
      seek.path = Plan::Path::kIndexSeekLookup;
    }
    if (seek.total() < best.total()) best = seek;
  }

  if (best.io == std::numeric_limits<double>::infinity()) return std::nullopt;
  best.index = &idx.def;
  return best;
}

WhatIfOptimizer::Plan WhatIfOptimizer::BestTableAccess(
    const PreparedTable& table, const MemberList& members) const {
  const std::string& name = table.table->name();
  Plan best;
  bool have = false;
  // The heap exists unless a clustered index replaced it.
  if (std::none_of(members.begin(), members.end(),
                   [&](const PhysicalIndexEstimate* idx) {
                     return idx->def.clustered && idx->def.object == name;
                   })) {
    best = Plan{table.heap_io, table.heap_cpu, Plan::Path::kHeapScan,
                table.table, nullptr};
    have = true;
  }
  for (const PhysicalIndexEstimate* idx : members) {
    if (idx->def.object != name) continue;
    std::optional<Plan> c = IndexAccessCost(table, *idx);
    if (c.has_value() && (!have || c->total() < best.total())) {
      best = *c;
      have = true;
    }
  }
  CAPD_CHECK(have) << "no access path for table " << name
                   << " (clustered index removed the heap but is unusable?)";
  return best;
}

WhatIfOptimizer::Plan WhatIfOptimizer::CostSelect(
    const PreparedStatement& stmt, const MemberList& members) const {
  const SelectQuery& q = stmt.stmt->select;
  const PreparedTable& root = stmt.tables.front();
  // Base relational plan: root access + one join at a time.
  Plan plan = BestTableAccess(root, members);
  const double root_rows = root.rows * stmt.root_sel;

  for (size_t j = 0; j < q.joins.size(); ++j) {
    const PreparedTable& dim = stmt.tables[stmt.join_tables[j]];
    const Plan dim_scan = BestTableAccess(dim, members);
    // Hash join: build on the dimension side, probe with root rows.
    Plan hash = dim_scan;
    hash.cpu += params_.cpu_per_tuple_read * (dim.rows + root_rows);

    // Index nested loops: per-row seek into a dimension index keyed on the
    // join key, if the configuration has one.
    Plan nl;
    nl.io = std::numeric_limits<double>::infinity();
    for (const PhysicalIndexEstimate* idx : members) {
      if (idx->def.object != q.joins[j].dim_table) continue;
      if (idx->def.key_columns.empty() ||
          idx->def.key_columns[0] != q.joins[j].dim_key)
        continue;
      if (idx->def.filter.has_value()) continue;
      Plan c;
      c.io = root_rows * params_.random_page_io;
      const double beta = params_.Beta(idx->def.compression);
      c.cpu = root_rows * (params_.cpu_per_tuple_read +
                           static_cast<double>(dim.cols_used.size()) * beta);
      if (c.total() < nl.total()) nl = c;
    }

    const Plan& join = nl.total() < hash.total() ? nl : hash;
    plan.io += join.io;
    plan.cpu += join.cpu;
  }

  // Grouping/aggregation/output CPU.
  if (!q.group_by.empty() || !q.aggregates.empty()) {
    plan.cpu += params_.cpu_per_tuple_read * root_rows;
  }

  // Alternative: answer the whole query from an MV index.
  if (mv_matcher_ != nullptr) {
    for (const PhysicalIndexEstimate* idx : members) {
      std::optional<MVMatcher::MVAccess> access =
          mv_matcher_->Match(idx->def, q);
      if (!access.has_value()) continue;
      Plan mv_plan;
      const double mv_pages = std::max(idx->pages(), 1.0);
      const double frac = access->selected_frac;
      if (access->leading_key_seek && frac < 1.0) {
        mv_plan.io = params_.random_page_io * 2.0 +
                     params_.seq_page_io * std::max(1.0, mv_pages * frac);
      } else {
        mv_plan.io = params_.seq_page_io * mv_pages;
      }
      const double beta = params_.Beta(idx->def.compression);
      mv_plan.cpu = access->mv_tuples * frac *
                    (params_.cpu_per_tuple_read +
                     static_cast<double>(access->used_columns) * beta);
      mv_plan.path = Plan::Path::kMV;
      mv_plan.index = &idx->def;
      if (mv_plan.total() < plan.total()) plan = mv_plan;
    }
  }
  return plan;
}

WhatIfOptimizer::Plan WhatIfOptimizer::CostInsert(
    const PreparedStatement& stmt, const MemberList& members) const {
  const InsertStatement& ins = stmt.stmt->insert;
  const Table& t = *stmt.tables.front().table;
  const double rows = static_cast<double>(ins.num_rows);
  Plan plan;
  plan.path = Plan::Path::kBulkInsert;
  plan.table = &t;

  // Heap (or clustered index) append.
  const double heap_row_bytes = t.schema().RowWidth() + kRowOverhead;
  plan.io = params_.seq_page_io * rows * heap_row_bytes / kPageCapacity;
  plan.cpu = params_.cpu_per_tuple_write * rows;

  for (const PhysicalIndexEstimate* member : members) {
    const PhysicalIndexEstimate& idx = *member;
    if (idx.def.object != ins.table) {
      // Indexes on MVs over this fact table must be maintained too: each
      // inserted row updates one group (count/sums) in the MV.
      if (mv_matcher_ != nullptr &&
          mv_matcher_->FactTableOf(idx.def.object) == ins.table) {
        const double alpha = params_.Alpha(idx.def.compression);
        plan.cpu += rows * (params_.cpu_per_tuple_write + alpha);
        const double pages = std::max(idx.pages(), 1.0);
        const double touched = pages * (1.0 - std::exp(-rows / pages));
        plan.io += params_.random_page_io * touched * params_.index_maintenance_io_factor;
      }
      continue;
    }
    double enter_frac = 1.0;
    if (idx.def.filter.has_value()) {
      enter_frac = FilterSelectivity(ins.table, *idx.def.filter);
    }
    const double rows_idx = rows * enter_frac;
    const double alpha = params_.Alpha(idx.def.compression);
    // CPUCost_update = BaseCPUCost + alpha * #tuples_written (Appendix A.1).
    plan.cpu += rows_idx * (params_.cpu_per_tuple_write + alpha);
    // Sequential write volume of the new entries...
    const double bytes_per_tuple = idx.bytes / std::max(idx.tuples, 1.0);
    plan.io += params_.seq_page_io * rows_idx * bytes_per_tuple / kPageCapacity;
    // ...plus scattered B-tree leaf maintenance, damped by buffer-pool hits.
    const double pages = std::max(idx.pages(), 1.0);
    const double touched = pages * (1.0 - std::exp(-rows_idx / pages));
    plan.io += params_.random_page_io * touched * params_.index_maintenance_io_factor;
  }
  return plan;
}

WhatIfOptimizer::Plan WhatIfOptimizer::CostPlan(
    const PreparedStatement& stmt, const MemberList& members) const {
  return stmt.stmt->type == StatementType::kInsert ? CostInsert(stmt, members)
                                                   : CostSelect(stmt, members);
}

PlanCost WhatIfOptimizer::CostWithPlan(const Statement& stmt,
                                       const Configuration& config) const {
  static const char* const kPathPrefix[] = {  // indexed by Plan::Path
      "heap scan(", "index scan(", "index seek(", "index seek+lookup(", "MV ",
      "bulk insert("};
  const Plan plan = CostPlan(Prepare(stmt), config.members());
  PlanCost cost;
  cost.io = plan.io;
  cost.cpu = plan.cpu;
  cost.access_path =
      kPathPrefix[static_cast<int>(plan.path)] +
      (plan.index != nullptr ? plan.index->ToString() : plan.table->name()) +
      (plan.path == Plan::Path::kMV ? "" : ")");
  return cost;
}

double WhatIfOptimizer::Cost(const PreparedStatement& stmt,
                             const MemberList& members) const {
  return CostPlan(stmt, members).total();
}

double WhatIfOptimizer::Cost(const Statement& stmt,
                             const Configuration& config) const {
  return Cost(Prepare(stmt), config.members());
}

double WhatIfOptimizer::WorkloadCost(const Workload& workload,
                                     const Configuration& config) const {
  const MemberList members = config.members();
  double total = 0.0;
  for (const Statement& s : workload.statements) {
    total += s.weight * Cost(Prepare(s), members);
  }
  return total;
}

}  // namespace capd
