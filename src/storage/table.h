// A table is its rows in typed column blocks (storage/block.h) of
// block_rows() rows each but the last. The rows come from one of two places:
//   - resident: appended with AddRow and kept in memory (every laptop-scale
//     workload table, and every sample, synopsis and MV table);
//   - generated: produced a block at a time on demand by a seeded
//     BlockSource, so a 10^7-10^8-row table is never fully resident.
// Both are read the same way: ScanBlocks hands out whole blocks, ScanRows
// rows, and CollectRows copies chosen rows into a new resident table.
// The physical-design machinery derives page counts through the index
// builder rather than from a real buffer pool, which is all the paper's
// evaluation needs.
#ifndef CAPD_STORAGE_TABLE_H_
#define CAPD_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/block.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace capd {

class ThreadPool;

class Table {
 public:
  // Resident table, empty until AddRow.
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  // Generated table: `num_rows` rows in blocks of `block_rows`, produced on
  // demand by `source` (shared so derived tables can alias one generator).
  Table(std::string name, Schema schema, uint64_t num_rows,
        std::shared_ptr<const BlockSource> source,
        uint64_t block_rows = kDefaultBlockRows);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  bool generated() const { return source_ != nullptr; }

  // Appends one row to a resident table, cell by typed cell; the Values
  // must match the schema's types.
  void AddRow(const Row& row);

  uint64_t block_rows() const { return block_rows_; }
  uint64_t num_blocks() const {
    return (num_rows_ + block_rows_ - 1) / block_rows_;
  }

  // Visits every block in order: fn(global index of its first row, block).
  // A resident block is handed out in place; a generated one is filled
  // into one scratch block, so peak memory is O(block). The block is only
  // valid for the duration of the call.
  void ScanBlocks(
      const std::function<void(uint64_t, const ColumnBlock&)>& fn) const;

  // Visits every row in order: fn(global row index, row), through one
  // scratch Row. The Row reference is only valid for the duration of the
  // call.
  void ScanRows(const std::function<void(uint64_t, const Row&)>& fn) const;

  // Copies the rows at `sorted_indices`, which must ascend (repeats
  // allowed) and lie in [0, num_rows()), into a new resident table named
  // `name`. A generated table fills each block holding a requested index
  // once and renders only the requested rows of it; with a borrowed pool
  // the blocks fill concurrently, and the rows are the same. This is the
  // streaming half of sample extraction: no block is rendered whole, so
  // memory is O(|indices|).
  std::unique_ptr<Table> CollectRows(
      std::string name, const std::vector<uint64_t>& sorted_indices,
      ThreadPool* pool = nullptr) const;

  // Uncompressed heap size in pages/bytes (fixed row width + slot overhead).
  uint64_t HeapPages() const;
  uint64_t HeapBytes() const { return HeapPages() * kPageSize; }

 private:
  // Block `b` restricted to its block-local rows *keep (ascending; every
  // row when null): a resident block is returned in place when whole and
  // gathered into *scratch otherwise; a generated one is filled into
  // *scratch from the source.
  const ColumnBlock& ReadBlock(uint64_t b, const std::vector<uint64_t>* keep,
                               ColumnBlock* scratch) const;

  std::string name_;
  Schema schema_;
  uint64_t num_rows_ = 0;
  uint64_t block_rows_ = kDefaultBlockRows;
  std::vector<ColumnBlock> blocks_;             // resident rows
  std::shared_ptr<const BlockSource> source_;  // generated rows
};

}  // namespace capd

#endif  // CAPD_STORAGE_TABLE_H_
