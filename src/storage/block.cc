#include "storage/block.h"

#include "common/logging.h"
#include "storage/encoding.h"

namespace capd {

ColumnBlock::ColumnBlock(const Schema& schema) : cols_(schema.num_columns()) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].type = schema.column(c).type;
  }
}

void ColumnBlock::Resize(uint64_t count) {
  num_rows_ = count;
  for (TypedColumn& col : cols_) {
    if (col.type == ValueType::kString) {
      // Strings past `count` keep their buffers for the next block.
      if (col.strings.size() < count) col.strings.resize(count);
      for (uint64_t r = 0; r < count; ++r) col.strings[r].clear();
    } else if (col.type == ValueType::kDouble) {
      col.doubles.assign(count, 0.0);
    } else {
      col.ints.assign(count, 0);
    }
  }
}

void ColumnBlock::AppendRow(const Row& row) {
  CAPD_CHECK_EQ(row.size(), cols_.size());
  const uint64_t r = num_rows_++;
  for (size_t c = 0; c < cols_.size(); ++c) {
    TypedColumn& col = cols_[c];
    CAPD_CHECK(row[c].type() == col.type)
        << "column " << c << " is " << ValueTypeName(col.type);
    if (col.type == ValueType::kString) {
      col.strings.resize(r + 1);
      col.strings[r] = row[c].AsString();
    } else if (col.type == ValueType::kDouble) {
      col.doubles.push_back(row[c].AsDouble());
    } else {
      col.ints.push_back(row[c].AsInt64());
    }
  }
}

void ColumnBlock::CopyRow(uint64_t to, const ColumnBlock& from, uint64_t row) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    const TypedColumn& col = from.At(c, row);
    if (col.type == ValueType::kString) {
      SetString(c, to, col.strings[row]);
    } else if (col.type == ValueType::kDouble) {
      SetDouble(c, to, col.doubles[row]);
    } else {
      SetInt64(c, to, col.ints[row]);
    }
  }
}

Value ColumnBlock::ValueAt(size_t c, uint64_t r) const {
  const TypedColumn& col = At(c, r);
  if (col.type == ValueType::kString) return Value::String(col.strings[r]);
  if (col.type == ValueType::kDouble) return Value::Double(col.doubles[r]);
  if (col.type == ValueType::kDate) return Value::Date(col.ints[r]);
  return Value::Int64(col.ints[r]);
}

void ColumnBlock::EncodeCell(size_t c, uint64_t r, const Column& col,
                             std::string* out) const {
  const TypedColumn& cells = At(c, r);
  if (cells.type == ValueType::kString) {
    EncodeStringField(cells.strings[r], col, out);
  } else if (cells.type == ValueType::kDouble) {
    EncodeDoubleField(cells.doubles[r], col, out);
  } else {
    EncodeInt64Field(cells.ints[r], col, out);
  }
}

double ColumnBlock::NumericKey(size_t c, uint64_t r) const {
  const TypedColumn& col = At(c, r);
  if (col.type == ValueType::kString) return StringNumericKey(col.strings[r]);
  if (col.type == ValueType::kDouble) return col.doubles[r];
  return static_cast<double>(col.ints[r]);
}

int ColumnBlock::Compare(size_t c, uint64_t r, const Value& v) const {
  const TypedColumn& col = At(c, r);
  CAPD_CHECK(col.type == v.type())
      << "cross-type compare: " << ValueTypeName(col.type) << " vs "
      << ValueTypeName(v.type());
  if (col.type == ValueType::kString) {
    const std::string& a = col.strings[r];
    const std::string& b = v.AsString();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (col.type == ValueType::kDouble) {
    const double a = col.doubles[r];
    const double b = v.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  const int64_t a = col.ints[r];
  const int64_t b = v.AsInt64();
  return a < b ? -1 : (a > b ? 1 : 0);
}

void ColumnBlock::RowAt(uint64_t r, Row* out) const {
  out->clear();
  out->reserve(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) out->push_back(ValueAt(c, r));
}

uint64_t BlockSeed(uint64_t seed, uint64_t block_index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (block_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace capd
