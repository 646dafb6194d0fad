#include "mv/mv_def.h"

#include <map>
#include <sstream>

#include "common/logging.h"
#include "common/math_util.h"
#include "stats/join_synopsis.h"

namespace capd {
namespace {

// `v` type-tagged and exact: integers and dates in decimal, a double by its
// bits, a string length-prefixed.
void AppendExact(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kInt64:
      out->append("i").append(std::to_string(v.AsInt64()));
      return;
    case ValueType::kDate:
      out->append("d").append(std::to_string(v.AsInt64()));
      return;
    case ValueType::kDouble:
      out->append("f").append(std::to_string(FractionBits(v.AsDouble())));
      return;
    case ValueType::kString:
      out->append("s").append(std::to_string(v.AsString().size()));
      out->append(":").append(v.AsString());
      return;
  }
}

}  // namespace

std::string MVDef::AggColumnName(const AggExpr& agg) {
  std::string fn = agg.func;
  for (char& c : fn) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return fn + "_" + agg.column;
}

Schema MVDef::OutputSchema(const Database& db) const {
  const Table& fact = db.table(fact_table);
  std::vector<Column> cols;
  auto find_col = [&](const std::string& name) -> Column {
    if (fact.schema().HasColumn(name)) {
      return fact.schema().column(fact.schema().ColumnIndex(name));
    }
    for (const JoinClause& j : joins) {
      const Schema& s = db.table(j.dim_table).schema();
      if (s.HasColumn(name)) return s.column(s.ColumnIndex(name));
    }
    CAPD_CHECK(false) << "MV " << this->name << ": unknown column " << name;
    return Column{};
  };
  for (const std::string& g : group_by) cols.push_back(find_col(g));
  for (const AggExpr& a : aggregates) {
    cols.push_back(Column{AggColumnName(a), ValueType::kDouble, 8});
  }
  cols.push_back(Column{kMVCountColumn, ValueType::kInt64, 8});
  return Schema(std::move(cols));
}

std::string MVDef::ToString() const {
  std::ostringstream os;
  os << "MV " << name << " = SELECT ";
  for (const std::string& g : group_by) os << g << ",";
  for (const AggExpr& a : aggregates) os << a.func << "(" << a.column << "),";
  os << "COUNT(*) FROM " << fact_table;
  for (const JoinClause& j : joins) os << " JOIN " << j.dim_table;
  if (!predicates.empty()) {
    os << " WHERE ";
    for (const ColumnFilter& p : predicates) os << p.ToString() << " AND ";
  }
  os << " GROUP BY ...";
  return os.str();
}

std::string MVDef::Identity() const {
  // Every field is length-prefixed and every list counted, so no two
  // definitions concatenate to the same string.
  std::string out = "MV";
  auto field = [&out](const std::string& s) {
    out.append("|").append(std::to_string(s.size())).append(":").append(s);
  };
  auto count = [&out](size_t n) {
    out.append("#").append(std::to_string(n));
  };
  field(fact_table);
  count(joins.size());
  for (const JoinClause& j : joins) {
    field(j.dim_table);
    field(j.fk_column);
    field(j.dim_key);
  }
  count(predicates.size());
  for (const ColumnFilter& p : predicates) {
    field(p.column);
    out.append("|").append(std::to_string(static_cast<int>(p.op)));
    out.append("|");
    AppendExact(p.lo, &out);
    out.append("|");
    AppendExact(p.hi, &out);
  }
  count(group_by.size());
  for (const std::string& g : group_by) field(g);
  count(aggregates.size());
  for (const AggExpr& a : aggregates) {
    field(a.func);
    field(a.column);
  }
  return out;
}

std::unique_ptr<Table> AggregateRows(const Table& input, const MVDef& def,
                                     const Database& db) {
  const Schema out_schema = def.OutputSchema(db);
  std::vector<size_t> group_pos;
  group_pos.reserve(def.group_by.size());
  for (const std::string& g : def.group_by) {
    group_pos.push_back(input.schema().ColumnIndex(g));
  }
  std::vector<size_t> agg_pos;
  agg_pos.reserve(def.aggregates.size());
  for (const AggExpr& a : def.aggregates) {
    agg_pos.push_back(input.schema().ColumnIndex(a.column));
  }

  struct GroupAccum {
    Row key;
    std::vector<double> sums;
    int64_t count = 0;
  };
  std::map<std::string, GroupAccum> groups;
  input.ScanRows([&](uint64_t, const Row& row) {
    for (const ColumnFilter& p : def.predicates) {
      if (!p.Matches(row, input.schema())) return;
    }
    std::string key;
    for (size_t p : group_pos) {
      key.append(row[p].ToString());
      key.push_back('\x1f');
    }
    GroupAccum& acc = groups[key];
    if (acc.count == 0) {
      acc.key.reserve(group_pos.size());
      for (size_t p : group_pos) acc.key.push_back(row[p]);
      acc.sums.assign(agg_pos.size(), 0.0);
    }
    for (size_t a = 0; a < agg_pos.size(); ++a) {
      acc.sums[a] += row[agg_pos[a]].NumericKey();
    }
    ++acc.count;
  });

  auto mv = std::make_unique<Table>(def.name, out_schema);
  for (auto& [key, acc] : groups) {
    Row out = std::move(acc.key);
    for (double s : acc.sums) out.push_back(Value::Double(s));
    out.push_back(Value::Int64(acc.count));
    mv->AddRow(out);
  }
  return mv;
}

std::unique_ptr<Table> MaterializeMV(const Database& db, const MVDef& def) {
  if (def.joins.empty()) {
    return AggregateRows(db.table(def.fact_table), def, db);
  }
  std::vector<const Table*> dims;
  std::vector<ForeignKey> edges;
  for (const JoinClause& j : def.joins) {
    dims.push_back(&db.table(j.dim_table));
    edges.push_back({def.fact_table, j.fk_column, j.dim_table, j.dim_key});
  }
  const std::unique_ptr<Table> joined = JoinDimensions(
      def.fact_table + "_joined", db.table(def.fact_table), dims, edges);
  return AggregateRows(*joined, def, db);
}

}  // namespace capd
