#include "storage/table.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace capd {

Table::Table(std::string name, Schema schema, uint64_t num_rows,
             std::shared_ptr<const BlockSource> source, uint64_t block_rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      source_(std::move(source)),
      generated_rows_(num_rows),
      block_rows_(block_rows) {
  CAPD_CHECK(source_ != nullptr) << "table " << name_;
  CAPD_CHECK_GT(block_rows_, 0u);
}

const std::vector<Row>& Table::rows() const {
  CAPD_CHECK(materialized())
      << "table " << name_ << " is generated; use ScanRows/CollectRows";
  return rows_;
}

void Table::AddRow(Row row) {
  CAPD_CHECK(materialized()) << "table " << name_;
  CAPD_CHECK_EQ(row.size(), schema_.num_columns()) << "table " << name_;
  rows_.push_back(std::move(row));
}

void Table::ScanRows(
    const std::function<void(uint64_t, const Row&)>& fn) const {
  if (materialized()) {
    for (uint64_t i = 0; i < rows_.size(); ++i) fn(i, rows_[i]);
    return;
  }
  ColumnBlock block(schema_);
  std::vector<uint64_t> every_row;
  Row scratch;
  const uint64_t n = num_rows();
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    const uint64_t first = b * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    every_row.resize(count);
    std::iota(every_row.begin(), every_row.end(), uint64_t{0});
    source_->FillBlock(b, first, every_row, &block);
    CAPD_CHECK_EQ(block.num_rows(), count)
        << "table " << name_ << " block " << b;
    for (uint64_t r = 0; r < count; ++r) {
      block.RowAt(r, &scratch);
      fn(first + r, scratch);
    }
  }
}

std::vector<Row> Table::CollectRows(
    const std::vector<uint64_t>& sorted_indices, ThreadPool* pool) const {
  const uint64_t n = num_rows();
  for (size_t i = 0; i < sorted_indices.size(); ++i) {
    CAPD_CHECK_LT(sorted_indices[i], n) << "table " << name_;
    if (i > 0) {
      CAPD_CHECK_LE(sorted_indices[i - 1], sorted_indices[i])
          << "table " << name_ << ": indices must be sorted ascending";
    }
  }
  if (materialized()) {
    std::vector<Row> out;
    out.reserve(sorted_indices.size());
    for (uint64_t idx : sorted_indices) out.push_back(rows_[idx]);
    return out;
  }
  // The runs of indices that share a block: run k is
  // [run_begins[k], run_begins[k + 1]).
  std::vector<size_t> run_begins;
  for (size_t i = 0; i < sorted_indices.size(); ++i) {
    if (i == 0 || sorted_indices[i] / block_rows_ !=
                      sorted_indices[i - 1] / block_rows_) {
      run_begins.push_back(i);
    }
  }
  run_begins.push_back(sorted_indices.size());
  // One fill per touched block, keeping only its requested rows. Blocks
  // are independent, so they fill across the pool.
  std::vector<Row> out(sorted_indices.size());
  ParallelFor(pool, run_begins.size() - 1, [&](size_t k) {
    const size_t begin = run_begins[k];
    const size_t end = run_begins[k + 1];
    const uint64_t b = sorted_indices[begin] / block_rows_;
    const uint64_t first = b * block_rows_;
    std::vector<uint64_t> keep;  // block-local
    keep.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      keep.push_back(sorted_indices[i] - first);
    }
    ColumnBlock block(schema_);
    source_->FillBlock(b, first, keep, &block);
    CAPD_CHECK_EQ(block.num_rows(), keep.size())
        << "table " << name_ << " block " << b;
    for (size_t j = 0; j < keep.size(); ++j) {
      block.RowAt(j, &out[begin + j]);
    }
  });
  return out;
}

uint64_t Table::HeapPages() const {
  const uint64_t row_bytes = schema_.RowWidth() + kRowOverhead;
  const uint64_t rows_per_page = kPageCapacity / row_bytes;
  CAPD_CHECK_GT(rows_per_page, 0u) << "row wider than a page";
  return (num_rows() + rows_per_page - 1) / rows_per_page;
}

}  // namespace capd
