// Blocked columnar storage. A ColumnBlock holds a fixed-size run of rows
// column-major (struct-of-arrays); a BlockSource generates the rows of one
// block on demand from a per-block seed. Together they let Table expose
// 10^7-10^8-row datasets that are scanned one block at a time — peak memory
// is O(block), never O(table) — while staying bit-deterministic: block b's
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

// Rows per generated block. Small enough that one resident block of a wide
// schema stays in the low megabytes, large enough to amortize per-block
// generator setup.
inline constexpr uint64_t kDefaultBlockRows = 8192;

// One block of rows in columnar (struct-of-arrays) layout: each column is
// one typed array (int64_t for INT64 and DATE, double for DOUBLE,
// std::string for STRING). A source sizes the block with Resize and writes
// every cell through the typed setters; RowAt is the only place a Value is
// built. Reused as a scratch buffer across blocks by scanning code: Reset()
// keeps every column's capacity so a long scan settles into zero
// steady-state allocation churn.
class ColumnBlock {
 public:
  explicit ColumnBlock(const Schema& schema);

  // Clears the block and pins the global index of its first row.
  void Reset(uint64_t first_row);

  // Sizes the block to `count` rows of zero/empty cells.
  void Resize(uint64_t count);

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

  uint64_t first_row() const { return first_row_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return cols_.size(); }

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

  TypedColumn& Checked(size_t c, uint64_t r, ValueType type) {
    CAPD_CHECK_LT(c, cols_.size());
    const ValueType t = cols_[c].type;
    CAPD_CHECK((t == ValueType::kDate ? ValueType::kInt64 : t) == type)
        << "column " << c << " is " << ValueTypeName(t);
    CAPD_CHECK_LT(r, num_rows_);
    return cols_[c];
  }

  uint64_t first_row_ = 0;
  uint64_t num_rows_ = 0;
  std::vector<TypedColumn> cols_;
};

// Generates the rows of one block. Implementations MUST be deterministic
// per block — FillBlock(b, ...) always writes the identical rows for a
// given source, typically by seeding a fresh Random with
// BlockSeed(table_seed, b) — and thread-safe for concurrent FillBlock
// calls on distinct blocks (parallel materialization fans blocks across a
// ThreadPool).
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  // Writes exactly `count` rows (global indices [first_row,
  // first_row+count)) into *out, which has been Reset(first_row): calls
  // out->Resize(count), then sets every cell.
  virtual void FillBlock(uint64_t block_index, uint64_t first_row,
                         uint64_t count, ColumnBlock* out) const = 0;
};

// splitmix64 mix of (seed, block): decorrelates per-block RNG streams so
// neighboring blocks do not see shifted copies of one stream.
uint64_t BlockSeed(uint64_t seed, uint64_t block_index);

}  // namespace capd

#endif  // CAPD_STORAGE_BLOCK_H_
