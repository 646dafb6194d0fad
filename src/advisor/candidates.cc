#include "advisor/candidates.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"

namespace capd {
namespace {

void AddUnique(std::vector<std::string>* v, const std::string& s) {
  if (std::find(v->begin(), v->end(), s) == v->end()) v->push_back(s);
}

std::vector<std::string> Minus(const std::vector<std::string>& a,
                               const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const std::string& x : a) {
    if (std::find(b.begin(), b.end(), x) == b.end()) out.push_back(x);
  }
  return out;
}

}  // namespace

void CandidateGenerator::GenerateForTable(const SelectQuery& q,
                                          const std::string& table,
                                          std::vector<IndexDef>* out) const {
  const std::vector<ColumnFilter> preds = q.PredicatesOn(table, *db_);
  const std::vector<std::string> cols_used = q.ColumnsUsedOn(table, *db_);
  if (cols_used.empty()) return;

  // Predicate columns, most selective first: good seek keys.
  std::vector<std::pair<double, std::string>> by_sel;
  for (const ColumnFilter& p : preds) {
    by_sel.emplace_back(optimizer_->FilterSelectivity(table, p), p.column);
  }
  std::sort(by_sel.begin(), by_sel.end());
  std::vector<std::string> pred_cols;
  for (const auto& [sel, col] : by_sel) AddUnique(&pred_cols, col);

  auto make = [&](std::vector<std::string> keys,
                  std::vector<std::string> includes, bool clustered) {
    if (keys.empty()) return;
    IndexDef def;
    def.object = table;
    def.key_columns = std::move(keys);
    def.include_columns = std::move(includes);
    def.clustered = clustered;
    out->push_back(std::move(def));
  };

  if (!pred_cols.empty()) {
    // Narrow seek index on all predicate columns.
    make(pred_cols, {}, false);
    // Covering index: predicate keys + everything else the query touches.
    make(pred_cols, Minus(cols_used, pred_cols), false);
    // Single most-selective column (cheap, mergeable).
    if (pred_cols.size() > 1) make({pred_cols[0]}, {}, false);
    // Clustered candidate on the most selective predicate column (fact
    // tables only — the root of the query).
    if (table == q.table) make({pred_cols[0]}, {}, true);
  }

  // Group/order driven index with covering includes.
  const std::vector<std::string>& grouping =
      !q.group_by.empty() ? q.group_by : q.order_by;
  std::vector<std::string> group_here;
  for (const std::string& g : grouping) {
    if (db_->table(table).schema().HasColumn(g)) group_here.push_back(g);
  }
  if (!group_here.empty()) {
    make(group_here, Minus(cols_used, group_here), false);
  }

  // Join support on the dimension side.
  for (const JoinClause& j : q.joins) {
    if (j.dim_table != table) continue;
    make({j.dim_key}, Minus(cols_used, {j.dim_key}), false);
  }

  // Partial indexes: pin one predicate as the index filter, key on the
  // remaining predicate columns (or the filter column itself).
  if (options_->enable_partial) {
    for (const ColumnFilter& p : preds) {
      IndexDef def;
      def.object = table;
      def.filter = p;
      std::vector<std::string> keys = Minus(pred_cols, {p.column});
      if (keys.empty()) keys = {p.column};
      def.key_columns = std::move(keys);
      def.include_columns = Minus(cols_used, def.key_columns);
      out->push_back(std::move(def));
    }
  }
}

std::optional<MVDef> CandidateGenerator::MVCandidate(
    const SelectQuery& q, const std::string& query_id) const {
  if (q.group_by.empty() || q.aggregates.empty()) return std::nullopt;
  MVDef def;
  def.name = "mv_" + query_id;
  def.fact_table = q.table;
  def.joins = q.joins;
  def.group_by = q.group_by;
  def.aggregates = q.aggregates;
  // Predicates not applicable on the MV output get pinned into the view.
  for (const ColumnFilter& p : q.predicates) {
    const bool on_group = std::find(q.group_by.begin(), q.group_by.end(),
                                    p.column) != q.group_by.end();
    if (!on_group) def.predicates.push_back(p);
  }
  return def;
}

std::vector<IndexDef> CandidateGenerator::GenerateForQuery(
    const SelectQuery& q, const std::string& query_id) {
  std::vector<IndexDef> out;
  GenerateForTable(q, q.table, &out);
  for (const JoinClause& j : q.joins) GenerateForTable(q, j.dim_table, &out);

  if (options_->enable_mv && mvs_ != nullptr) {
    if (std::optional<MVDef> mv = MVCandidate(q, query_id); mv.has_value()) {
      if (mvs_->Find(mv->name) == nullptr) mvs_->Register(*mv);
      IndexDef def;
      def.object = mv->name;
      def.key_columns = mv->group_by;
      for (const AggExpr& a : mv->aggregates) {
        def.include_columns.push_back(MVDef::AggColumnName(a));
      }
      def.include_columns.push_back(kMVCountColumn);
      out.push_back(std::move(def));
    }
  }
  return out;
}

std::vector<IndexDef> CandidateGenerator::GenerateForWorkload(
    const Workload& workload) {
  std::vector<IndexDef> all;
  std::set<std::string> seen;
  for (const Statement& s : workload.statements) {
    if (s.type != StatementType::kSelect) continue;
    for (const IndexDef& def : GenerateForQuery(s.select, s.id)) {
      std::vector<IndexDef> with_variants;
      with_variants.push_back(def);
      AddVariants(def, &with_variants);
      for (const IndexDef& v : with_variants) {
        if (seen.insert(v.Signature()).second) all.push_back(v);
      }
    }
  }
  return all;
}

void CandidateGenerator::AddVariants(const IndexDef& def,
                                     std::vector<IndexDef>* out) const {
  if (options_->compression_variants.empty()) return;
  CAPD_CHECK(def.compression == CompressionKind::kNone);
  const Schema& schema = mvs_ != nullptr ? mvs_->ObjectSchema(def.object)
                                         : db_->table(def.object).schema();
  if (!def.CompressionFits(schema)) return;
  for (CompressionKind kind : options_->compression_variants) {
    if (kind == CompressionKind::kBitmap && !BitmapEligible(def)) continue;
    out->push_back(def.WithCompression(kind));
  }
}

bool CandidateGenerator::BitmapEligible(const IndexDef& def) const {
  // Per-distinct-value bitmaps only pay off when the leading key is
  // low-cardinality; anything else explodes into one bitmap per value.
  // MV objects carry no table stats, so they never get bitmap variants.
  if (def.key_columns.empty()) return false;
  if (!db_->HasTable(def.object)) return false;
  const ColumnStats& cs =
      db_->stats(def.object).column(def.key_columns.front());
  return cs.distinct <= kBitmapMaxLeadingDistinct;
}

std::vector<IndexDef> CandidateGenerator::MergeCandidates(
    const std::vector<IndexDef>& selected) {
  std::vector<IndexDef> merged;
  std::set<std::string> seen;
  for (const IndexDef& d : selected) seen.insert(d.Signature());
  for (size_t i = 0; i < selected.size(); ++i) {
    for (size_t j = i + 1; j < selected.size(); ++j) {
      const IndexDef& a = selected[i];
      const IndexDef& b = selected[j];
      if (a.object != b.object || a.clustered || b.clustered) continue;
      if (!db_->HasTable(a.object)) continue;  // MV indexes are not merged
      if (a.filter.has_value() || b.filter.has_value()) continue;
      if (a.key_columns.empty() || b.key_columns.empty()) continue;
      if (a.key_columns[0] != b.key_columns[0]) continue;
      // Merge: the longer key wins, the union of the rest becomes includes.
      IndexDef m;
      m.object = a.object;
      m.key_columns =
          a.key_columns.size() >= b.key_columns.size() ? a.key_columns
                                                       : b.key_columns;
      const Schema& schema = db_->table(a.object).schema();
      std::vector<std::string> cols;
      for (const std::string& c : a.StoredColumns(schema)) AddUnique(&cols, c);
      for (const std::string& c : b.StoredColumns(schema)) AddUnique(&cols, c);
      m.include_columns = Minus(cols, m.key_columns);
      std::vector<IndexDef> with_variants;
      with_variants.push_back(m);
      AddVariants(m, &with_variants);
      for (const IndexDef& v : with_variants) {
        if (seen.insert(v.Signature()).second) merged.push_back(v);
      }
    }
  }
  return merged;
}

}  // namespace capd
