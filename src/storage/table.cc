#include "storage/table.h"

#include <algorithm>

#include "common/logging.h"

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
  Row scratch;
  const uint64_t n = num_rows();
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    const uint64_t first = b * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    block.Reset(first);
    source_->FillBlock(b, first, count, &block);
    CAPD_CHECK_EQ(block.num_rows(), count)
        << "table " << name_ << " block " << b;
    for (uint64_t r = 0; r < count; ++r) {
      block.RowAt(r, &scratch);
      fn(first + r, scratch);
    }
  }
}

std::vector<Row> Table::CollectRows(
    const std::vector<uint64_t>& sorted_indices) const {
  std::vector<Row> out;
  out.reserve(sorted_indices.size());
  if (materialized()) {
    for (uint64_t idx : sorted_indices) {
      CAPD_CHECK_LT(idx, rows_.size()) << "table " << name_;
      out.push_back(rows_[idx]);
    }
    return out;
  }
  const uint64_t n = num_rows();
  ColumnBlock block(schema_);
  Row scratch;
  size_t i = 0;
  while (i < sorted_indices.size()) {
    const uint64_t idx = sorted_indices[i];
    CAPD_CHECK_LT(idx, n) << "table " << name_;
    const uint64_t b = idx / block_rows_;
    const uint64_t first = b * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    block.Reset(first);
    source_->FillBlock(b, first, count, &block);
    CAPD_CHECK_EQ(block.num_rows(), count)
        << "table " << name_ << " block " << b;
    // Drain every requested index that falls inside this block.
    for (; i < sorted_indices.size(); ++i) {
      const uint64_t next = sorted_indices[i];
      CAPD_CHECK_GE(next, idx) << "indices must be sorted ascending";
      if (next >= first + count) break;
      block.RowAt(next - first, &scratch);
      out.push_back(scratch);
    }
  }
  return out;
}

uint64_t Table::HeapPages() const {
  const uint64_t row_bytes = schema_.RowWidth() + kRowOverhead;
  const uint64_t rows_per_page = kPageCapacity / row_bytes;
  CAPD_CHECK_GT(rows_per_page, 0u) << "row wider than a page";
  return (num_rows() + rows_per_page - 1) / rows_per_page;
}

}  // namespace capd
