// Blocked columnar storage. A ColumnBlock holds a fixed-size run of rows
// column-major (struct-of-arrays) and is the only row storage: a resident
// Table keeps its rows in ColumnBlocks, and a BlockSource generates the
// rows of one block on demand from a per-block seed. Generated tables of
// 10^7-10^8 rows are scanned one block at a time — peak memory is
// O(block), never O(table) — while staying bit-deterministic: block b's
// contents depend only on (table seed, b), not on scan order or thread
// count.
#ifndef CAPD_STORAGE_BLOCK_H_
#define CAPD_STORAGE_BLOCK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace capd {

// Rows per block, resident or generated. Small enough that one block of a
// wide schema stays in the low megabytes, large enough to amortize
// per-block generator setup.
inline constexpr uint64_t kDefaultBlockRows = 8192;

// Rows in columnar (struct-of-arrays) layout: each column is one typed
// array (int64_t for INT64 and DATE, double for DOUBLE, std::string for
// STRING). A source sizes the block with Resize and writes every cell
// through the typed setters; a resident table appends with AppendRow.
// Only ValueAt and RowAt build Values; the other readers work on the
// typed cell. Const reads share no scratch, so threads may read one block
// concurrently. Resize keeps every column's capacity, so a scan reusing
// one scratch block settles into zero steady-state allocation churn.
class ColumnBlock {
 public:
  explicit ColumnBlock(const Schema& schema);

  // Sizes the block to `count` rows of zero/empty cells.
  void Resize(uint64_t count);

  // Appends one row whose Values match the column types exactly.
  void AppendRow(const Row& row);

  // Cell setters. Each CHECKs the column, its type and the row.
  void SetInt64(size_t c, uint64_t r, int64_t v) {  // INT64 and DATE
    Checked(c, r, ValueType::kInt64).ints[r] = v;
  }
  void SetDouble(size_t c, uint64_t r, double v) {
    Checked(c, r, ValueType::kDouble).doubles[r] = v;
  }
  void SetString(size_t c, uint64_t r, std::string_view v) {
    Checked(c, r, ValueType::kString).strings[r].assign(v.data(), v.size());
  }

  // Copies every cell of `from`'s row `row` (same schema) into row `to`.
  void CopyRow(uint64_t to, const ColumnBlock& from, uint64_t row);

  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return cols_.size(); }

  // Cell readers. Each CHECKs the column and the row.
  Value ValueAt(size_t c, uint64_t r) const;
  // Appends the cell's EncodeField bytes under `col` (its schema column).
  void EncodeCell(size_t c, uint64_t r, const Column& col,
                  std::string* out) const;
  // The cell's Value::NumericKey, without building the Value.
  double NumericKey(size_t c, uint64_t r) const;
  // The cell's Value::Compare(v), without building the Value; CHECK-fails
  // across types as Compare does.
  int Compare(size_t c, uint64_t r, const Value& v) const;

  // Reconstructs block-local row `r` into *out (cleared first). Taking a
  // scratch Row lets tight scan loops reuse one allocation.
  void RowAt(uint64_t r, Row* out) const;

 private:
  struct TypedColumn {
    ValueType type = ValueType::kInt64;  // DATE cells live in `ints` too
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
  };

  const TypedColumn& At(size_t c, uint64_t r) const {
    CAPD_CHECK_LT(c, cols_.size());
    CAPD_CHECK_LT(r, num_rows_);
    return cols_[c];
  }

  TypedColumn& Checked(size_t c, uint64_t r, ValueType type) {
    const ValueType t = At(c, r).type;
    CAPD_CHECK((t == ValueType::kDate ? ValueType::kInt64 : t) == type)
        << "column " << c << " is " << ValueTypeName(t);
    return cols_[c];
  }

  uint64_t num_rows_ = 0;
  std::vector<TypedColumn> cols_;
};

// Generates the rows of one block. Implementations MUST be deterministic
// per block — block b's row r is the same bytes whichever rows a call
// keeps, typically because a fresh Random seeded with
// BlockSeed(table_seed, b) makes every row's draws in row order — and
// thread-safe for concurrent FillBlock calls.
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  // Writes the block-local rows `rows` (ascending; repeats allowed; each
  // below the block's row count) of block `block_index`, whose first row
  // has global index `first_row`, into *out: calls out->Resize(rows.size()),
  // then sets every cell of out row j to block row rows[j]. A source whose
  // rows follow one RNG stream still draws every row up to the last kept
  // one, but renders only the kept ones.
  virtual void FillBlock(uint64_t block_index, uint64_t first_row,
                         const std::vector<uint64_t>& rows,
                         ColumnBlock* out) const = 0;
};

// splitmix64 mix of (seed, block): decorrelates per-block RNG streams so
// neighboring blocks do not see shifted copies of one stream.
uint64_t BlockSeed(uint64_t seed, uint64_t block_index);

}  // namespace capd

#endif  // CAPD_STORAGE_BLOCK_H_
