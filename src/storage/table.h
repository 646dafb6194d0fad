// Tables come in two physical flavors behind one interface:
//   - materialized: rows live in a vector (the seed's representation; all
//     laptop-scale workloads and every sample table use it);
//   - blocked/generated: fixed-size columnar blocks produced on demand by a
//     seeded BlockSource, so a 10^7-10^8-row table is scanned one block at
//     a time and never fully resident.
// The physical-design machinery derives page counts through the index
// builder rather than from a real buffer pool, which is all the paper's
// evaluation needs. Scans go through ScanRows/CollectRows, which work on
// both flavors; rows() (and the random access it invites) is only legal on
// materialized tables.
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
  // Materialized (row-vector) table.
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  // Blocked/generated table: `num_rows` rows in blocks of `block_rows`,
  // produced on demand by `source` (shared so derived tables — renames,
  // samples of samples — can alias one generator).
  Table(std::string name, Schema schema, uint64_t num_rows,
        std::shared_ptr<const BlockSource> source,
        uint64_t block_rows = kDefaultBlockRows);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  bool materialized() const { return source_ == nullptr; }
  uint64_t num_rows() const {
    return materialized() ? rows_.size() : generated_rows_;
  }

  // Direct row access; only materialized tables have resident rows.
  // Streaming consumers should use ScanRows/CollectRows instead.
  const std::vector<Row>& rows() const;

  void AddRow(Row row);
  void Reserve(size_t n) { rows_.reserve(n); }

  // Block geometry. Materialized tables expose the same fixed-size view so
  // block-wise code paths need not special-case them.
  uint64_t block_rows() const { return block_rows_; }
  uint64_t num_blocks() const {
    return (num_rows() + block_rows_ - 1) / block_rows_;
  }

  // Streams every row in order: fn(global_row_index, row). Peak memory is
  // O(block) for generated tables (one scratch block + one scratch row),
  // O(1) extra for materialized ones. The Row reference is only valid for
  // the duration of the call.
  void ScanRows(const std::function<void(uint64_t, const Row&)>& fn) const;

  // Copies the rows at `sorted_indices`, which must ascend (repeats
  // allowed) and lie in [0, num_rows()). A generated table fills each block
  // holding a requested index once and renders only the requested rows of
  // it; with a borrowed pool the blocks fill concurrently, and the rows are
  // the same. This is the streaming half of sample extraction: no block is
  // rendered whole, so memory is O(|indices|).
  std::vector<Row> CollectRows(const std::vector<uint64_t>& sorted_indices,
                               ThreadPool* pool = nullptr) const;

  // Uncompressed heap size in pages/bytes (fixed row width + slot overhead).
  uint64_t HeapPages() const;
  uint64_t HeapBytes() const { return HeapPages() * kPageSize; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;

  // Generated-mode state; source_ == nullptr means materialized.
  std::shared_ptr<const BlockSource> source_;
  uint64_t generated_rows_ = 0;
  uint64_t block_rows_ = kDefaultBlockRows;
};

}  // namespace capd

#endif  // CAPD_STORAGE_TABLE_H_
