#include "index/index_def.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "common/logging.h"
#include "compress/null_suppression.h"
#include "storage/block.h"

namespace capd {
namespace {

// Whether a value passes `f`, given `compare(bound)`: the value's
// Value::Compare against a bound of the filter.
template <typename CompareFn>
bool Passes(const ColumnFilter& f, CompareFn&& compare) {
  switch (f.op) {
    case FilterOp::kEq:
      return compare(f.lo) == 0;
    case FilterOp::kLt:
      return compare(f.lo) < 0;
    case FilterOp::kLe:
      return compare(f.lo) <= 0;
    case FilterOp::kGt:
      return compare(f.lo) > 0;
    case FilterOp::kGe:
      return compare(f.lo) >= 0;
    case FilterOp::kBetween:
      return compare(f.lo) >= 0 && compare(f.hi) <= 0;
  }
  return false;
}

// `f` rendered with `literal(bound)` for each bound.
template <typename LiteralFn>
std::string Render(const ColumnFilter& f, LiteralFn&& literal) {
  std::ostringstream os;
  os << f.column;
  switch (f.op) {
    case FilterOp::kEq:
      os << "=" << literal(f.lo);
      break;
    case FilterOp::kLt:
      os << "<" << literal(f.lo);
      break;
    case FilterOp::kLe:
      os << "<=" << literal(f.lo);
      break;
    case FilterOp::kGt:
      os << ">" << literal(f.lo);
      break;
    case FilterOp::kGe:
      os << ">=" << literal(f.lo);
      break;
    case FilterOp::kBetween:
      os << " BETWEEN " << literal(f.lo) << " AND " << literal(f.hi);
      break;
  }
  return os.str();
}

}  // namespace

bool ColumnFilter::Matches(const Row& row, const Schema& schema) const {
  const Value& v = row[schema.ColumnIndex(column)];
  return Passes(*this, [&](const Value& bound) { return v.Compare(bound); });
}

bool ColumnFilter::MatchesCell(const ColumnBlock& block, size_t c,
                               uint64_t r) const {
  return Passes(*this, [&](const Value& bound) {
    return block.Compare(c, r, bound);
  });
}

std::string ColumnFilter::ToString() const {
  return Render(*this, [](const Value& v) { return v.ToString(); });
}

std::string ColumnFilter::Key() const {
  return Render(*this, [](const Value& v) {
    if (v.type() != ValueType::kDouble) return v.ToString();
    char buf[32];
    char* end = std::to_chars(buf, buf + sizeof(buf), v.AsDouble()).ptr;
    return std::string(buf, end);
  });
}

std::vector<std::string> IndexDef::StoredColumns(
    const Schema& base_schema) const {
  std::vector<std::string> cols = key_columns;
  if (clustered) {
    for (const Column& c : base_schema.columns()) {
      if (std::find(cols.begin(), cols.end(), c.name) == cols.end()) {
        cols.push_back(c.name);
      }
    }
  } else {
    for (const std::string& c : include_columns) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
  }
  return cols;
}

bool IndexDef::Stores(const Schema& base_schema,
                      const std::string& column) const {
  auto in = [&column](const std::vector<std::string>& cols) {
    return std::find(cols.begin(), cols.end(), column) != cols.end();
  };
  if (in(key_columns)) return true;
  return clustered ? base_schema.HasColumn(column) : in(include_columns);
}

Schema IndexDef::StoredSchema(const Schema& base_schema) const {
  std::vector<Column> cols;
  for (const std::string& name : StoredColumns(base_schema)) {
    cols.push_back(base_schema.column(base_schema.ColumnIndex(name)));
  }
  if (!clustered) cols.push_back(Column{"__rowid", ValueType::kInt64, 8});
  return Schema(std::move(cols));
}

bool IndexDef::CompressionFits(const Schema& base_schema) const {
  for (const std::string& name : StoredColumns(base_schema)) {
    const Column& column = base_schema.column(base_schema.ColumnIndex(name));
    if (column.width > kMaxNsFieldWidth) return false;
  }
  return true;
}

IndexDef IndexDef::WithCompression(CompressionKind kind) const {
  IndexDef copy = *this;
  copy.compression = kind;
  return copy;
}

std::string IndexDef::StructureSignature() const {
  std::string out = object;
  out += clustered ? "|C|" : "|N|";
  for (const std::string& c : key_columns) out.append(c).push_back(',');
  out.push_back('|');
  for (const std::string& c : include_columns) out.append(c).push_back(',');
  if (filter.has_value()) out.append("|F:").append(filter->Key());
  return out;
}

std::string IndexDef::Signature() const {
  std::string out = StructureSignature();
  out.push_back('|');
  out += CompressionKindName(compression);
  return out;
}

std::string IndexDef::ToString() const {
  std::ostringstream os;
  os << (clustered ? "CLUSTERED " : "") << "IDX(" << object << ": ";
  for (size_t i = 0; i < key_columns.size(); ++i) {
    if (i > 0) os << ",";
    os << key_columns[i];
  }
  if (!include_columns.empty()) {
    os << " INCLUDE ";
    for (size_t i = 0; i < include_columns.size(); ++i) {
      if (i > 0) os << ",";
      os << include_columns[i];
    }
  }
  if (filter.has_value()) os << " WHERE " << filter->ToString();
  os << ") " << CompressionKindName(compression);
  return os.str();
}

}  // namespace capd
