#include "storage/block.h"

#include "common/logging.h"

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

void ColumnBlock::RowAt(uint64_t r, Row* out) const {
  CAPD_CHECK_LT(r, num_rows_);
  out->clear();
  out->reserve(cols_.size());
  for (const TypedColumn& col : cols_) {
    if (col.type == ValueType::kString) {
      out->push_back(Value::String(col.strings[r]));
    } else if (col.type == ValueType::kDouble) {
      out->push_back(Value::Double(col.doubles[r]));
    } else if (col.type == ValueType::kDate) {
      out->push_back(Value::Date(col.ints[r]));
    } else {
      out->push_back(Value::Int64(col.ints[r]));
    }
  }
}

uint64_t BlockSeed(uint64_t seed, uint64_t block_index) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (block_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace capd
