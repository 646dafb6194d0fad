#include "mv/mv_registry.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/math_util.h"
#include "stats/distinct_estimator.h"
#include "stats/join_synopsis.h"

namespace capd {
namespace {

bool SameJoinSet(const std::vector<JoinClause>& a,
                 const std::vector<JoinClause>& b) {
  if (a.size() != b.size()) return false;
  auto key = [](const JoinClause& j) {
    return j.dim_table + "|" + j.fk_column + "|" + j.dim_key;
  };
  std::set<std::string> sa, sb;
  for (const JoinClause& j : a) sa.insert(key(j));
  for (const JoinClause& j : b) sb.insert(key(j));
  return sa == sb;
}

bool SameColumnSet(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  return std::set<std::string>(a.begin(), a.end()) ==
         std::set<std::string>(b.begin(), b.end());
}

}  // namespace

void MVRegistry::Register(MVDef def) {
  CAPD_CHECK(defs_.count(def.name) == 0) << "duplicate MV " << def.name;
  schemas_.emplace(def.name, def.OutputSchema(*db_));
  defs_[def.name] = std::move(def);
}

const MVDef* MVRegistry::Find(const std::string& name) const {
  const auto it = defs_.find(name);
  return it == defs_.end() ? nullptr : &it->second;
}

std::vector<const MVDef*> MVRegistry::All() const {
  std::vector<const MVDef*> out;
  out.reserve(defs_.size());
  for (const auto& [name, def] : defs_) out.push_back(&def);
  return out;
}

const Table& MVRegistry::Synopsis(const std::string& fact, double f) {
  std::lock_guard<std::mutex> lock(mu_);
  return SynopsisLocked(fact, f);
}

const Table& MVRegistry::SynopsisLocked(const std::string& fact, double f) {
  const std::pair<std::string, uint64_t> key(fact, FractionBits(f));
  auto it = synopses_.find(key);
  if (it == synopses_.end()) {
    // Collect every FK edge from this fact table so one synopsis serves all
    // MVs over it.
    const std::vector<ForeignKey> edges = db_->ForeignKeysFrom(fact);
    std::vector<const Table*> dims;
    dims.reserve(edges.size());
    for (const ForeignKey& e : edges) dims.push_back(&db_->table(e.dim_table));
    // Seeded from fact and f printed to six significant digits (the
    // historical cache key), so every synopsis keeps its rows.
    std::ostringstream printed;
    printed << fact << "|" << f;
    Random rng(synopsis_seed_ ^ std::hash<std::string>{}(printed.str()));
    it = synopses_
             .emplace(key, BuildJoinSynopsis(db_->table(fact), dims, edges, f,
                                             &rng))
             .first;
  }
  return *it->second;
}

const Table& MVRegistry::Sample(const std::string& object, double f) {
  const MVDef* def = Find(object);
  // Base tables bypass mu_ entirely: the SampleManager has its own lock,
  // and holding ours here would serialize all base-table sampling too.
  if (def == nullptr) return table_source_.Sample(object, f);
  const std::pair<std::string, uint64_t> key(object, FractionBits(f));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = mv_samples_.find(key);
  if (it == mv_samples_.end()) {
    const Table& synopsis = SynopsisLocked(def->fact_table, f);
    it = mv_samples_.emplace(key, AggregateRows(synopsis, *def, *db_)).first;
  }
  return *it->second;
}

void MVRegistry::DrawSample(const std::string& object, double f,
                            ThreadPool* pool) {
  if (Find(object) == nullptr) table_source_.DrawSample(object, f, pool);
}

uint64_t MVRegistry::SampleRows(const std::string& object, double f) {
  if (Find(object) == nullptr) return table_source_.SampleRows(object, f);
  return SampleSource::SampleRows(object, f);
}

MVTupleEstimates MVRegistry::EstimateTuples(const MVDef& def, double f) {
  const Table& smv = Sample(def.name, f);
  const Table& synopsis = Synopsis(def.fact_table, f);

  // CreateMVSample (Appendix B.3): frequency stats from the count column.
  const size_t count_pos = smv.schema().ColumnIndex(kMVCountColumn);
  std::vector<uint64_t> class_counts;
  class_counts.reserve(smv.num_rows());
  uint64_t r = 0;  // tuples before aggregation (that passed the filter)
  for (const Row& row : smv.rows()) {
    const uint64_t c = static_cast<uint64_t>(row[count_pos].AsInt64());
    class_counts.push_back(c);
    r += c;
  }
  const uint64_t d = smv.num_rows();
  const double filter_factor =
      synopsis.num_rows() > 0
          ? static_cast<double>(r) / static_cast<double>(synopsis.num_rows())
          : 0.0;
  const uint64_t fact_rows = db_->table(def.fact_table).num_rows();
  const uint64_t n = static_cast<uint64_t>(
      std::max(1.0, static_cast<double>(fact_rows) * filter_factor));

  MVTupleEstimates est;
  est.sample_groups = d;
  est.sample_rows = r;
  est.adaptive = AdaptiveEstimate(BuildFrequencyStats(class_counts), d, r, n);
  est.multiply = MultiplyEstimate(d, r, n);

  // Optimizer baseline: independence across group-by columns using base
  // statistics.
  std::vector<uint64_t> per_col;
  for (const std::string& g : def.group_by) {
    // Find the owning table's stats.
    const Table& fact = db_->table(def.fact_table);
    if (fact.schema().HasColumn(g)) {
      per_col.push_back(db_->stats(def.fact_table).column(g).distinct);
      continue;
    }
    bool found = false;
    for (const JoinClause& j : def.joins) {
      if (db_->table(j.dim_table).schema().HasColumn(g)) {
        per_col.push_back(db_->stats(j.dim_table).column(g).distinct);
        found = true;
        break;
      }
    }
    CAPD_CHECK(found) << "MV group-by column not found: " << g;
  }
  est.optimizer = OptimizerIndependenceEstimate(per_col, n);
  return est;
}

double MVRegistry::FullTuples(const std::string& object) {
  const MVDef* def = Find(object);
  if (def == nullptr) return table_source_.FullTuples(object);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = tuple_estimates_.find(object);
    if (it != tuple_estimates_.end()) return it->second;
  }
  // Computed outside the lock (EstimateTuples re-enters Sample/Synopsis,
  // which take mu_ themselves). Concurrent callers compute the same
  // deterministic value, so a double insert is benign.
  const MVTupleEstimates est = EstimateTuples(*def, /*f=*/0.05);
  std::lock_guard<std::mutex> lock(mu_);
  tuple_estimates_[object] = est.adaptive;
  return est.adaptive;
}

const Schema& MVRegistry::ObjectSchema(const std::string& object) {
  const auto it = schemas_.find(object);
  if (it != schemas_.end()) return it->second;
  return table_source_.ObjectSchema(object);
}

std::optional<MVMatcher::MVAccess> MVRegistry::Match(
    const IndexDef& idx, const SelectQuery& query) const {
  const MVDef* def = Find(idx.object);
  if (def == nullptr) return std::nullopt;
  if (def->fact_table != query.table) return std::nullopt;
  if (!SameJoinSet(def->joins, query.joins)) return std::nullopt;
  if (!SameColumnSet(def->group_by, query.group_by)) return std::nullopt;

  // Every aggregate the query needs must exist in the MV.
  for (const AggExpr& a : query.aggregates) {
    const bool found = std::any_of(
        def->aggregates.begin(), def->aggregates.end(), [&](const AggExpr& m) {
          return m.column == a.column && m.func == a.func;
        });
    if (!found) return std::nullopt;
  }

  // Each MV predicate must be pinned by an identical query predicate (else
  // the MV may exclude rows the query needs); remaining query predicates
  // must be on group-by columns so they can be applied on the MV output.
  std::vector<ColumnFilter> residual;
  for (const ColumnFilter& qp : query.predicates) {
    const bool pinned = std::any_of(
        def->predicates.begin(), def->predicates.end(),
        [&](const ColumnFilter& mp) { return mp.ToString() == qp.ToString(); });
    if (!pinned) residual.push_back(qp);
  }
  for (const ColumnFilter& mp : def->predicates) {
    const bool matched = std::any_of(
        query.predicates.begin(), query.predicates.end(),
        [&](const ColumnFilter& qp) { return qp.ToString() == mp.ToString(); });
    if (!matched) return std::nullopt;
  }
  for (const ColumnFilter& rp : residual) {
    const bool on_group =
        std::find(def->group_by.begin(), def->group_by.end(), rp.column) !=
        def->group_by.end();
    if (!on_group) return std::nullopt;
  }

  MVAccess access;
  double mv_tuples = static_cast<double>(db_->table(def->fact_table).num_rows());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto est = tuple_estimates_.find(idx.object);
    if (est != tuple_estimates_.end()) mv_tuples = est->second;
  }
  access.mv_tuples = mv_tuples;
  // Residual selectivity approximated with base-table per-column stats.
  double frac = 1.0;
  for (const ColumnFilter& rp : residual) {
    const Table& fact = db_->table(def->fact_table);
    const std::string owner =
        fact.schema().HasColumn(rp.column) ? def->fact_table : [&]() {
          for (const JoinClause& j : def->joins) {
            if (db_->table(j.dim_table).schema().HasColumn(rp.column)) {
              return j.dim_table;
            }
          }
          return def->fact_table;
        }();
    const ColumnStats& cs = db_->stats(owner).column(rp.column);
    if (rp.op == FilterOp::kEq) {
      frac *= 1.0 / static_cast<double>(std::max<uint64_t>(cs.distinct, 1));
    } else {
      frac *= 0.3;  // coarse range default on MV output
    }
  }
  access.selected_frac = std::min(1.0, frac);
  access.used_columns = query.group_by.size() + query.aggregates.size();
  access.leading_key_seek =
      !idx.key_columns.empty() &&
      std::any_of(residual.begin(), residual.end(), [&](const ColumnFilter& rp) {
        return rp.column == idx.key_columns[0];
      });
  return access;
}

}  // namespace capd
