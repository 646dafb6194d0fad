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
      num_rows_(num_rows),
      block_rows_(block_rows),
      source_(std::move(source)) {
  CAPD_CHECK(source_ != nullptr) << "table " << name_;
  CAPD_CHECK_GT(block_rows_, 0u);
}

void Table::AddRow(const Row& row) {
  CAPD_CHECK(!generated()) << "table " << name_ << " is generated";
  if (num_rows_ % block_rows_ == 0) blocks_.emplace_back(schema_);
  blocks_.back().AppendRow(row);
  ++num_rows_;
}

const ColumnBlock& Table::ReadBlock(uint64_t b,
                                    const std::vector<uint64_t>* keep,
                                    ColumnBlock* scratch) const {
  if (!generated()) {
    if (keep == nullptr) return blocks_[b];
    scratch->Resize(keep->size());
    for (size_t j = 0; j < keep->size(); ++j) {
      scratch->CopyRow(j, blocks_[b], (*keep)[j]);
    }
    return *scratch;
  }
  const uint64_t first = b * block_rows_;
  std::vector<uint64_t> every_row;
  if (keep == nullptr) {
    every_row.resize(std::min(block_rows_, num_rows_ - first));
    std::iota(every_row.begin(), every_row.end(), uint64_t{0});
    keep = &every_row;
  }
  source_->FillBlock(b, first, *keep, scratch);
  CAPD_CHECK_EQ(scratch->num_rows(), keep->size())
      << "table " << name_ << " block " << b;
  return *scratch;
}

void Table::ScanBlocks(
    const std::function<void(uint64_t, const ColumnBlock&)>& fn) const {
  ColumnBlock scratch(schema_);
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    fn(b * block_rows_, ReadBlock(b, nullptr, &scratch));
  }
}

void Table::ScanRows(
    const std::function<void(uint64_t, const Row&)>& fn) const {
  Row row;
  ScanBlocks([&](uint64_t first_row, const ColumnBlock& block) {
    for (uint64_t r = 0; r < block.num_rows(); ++r) {
      block.RowAt(r, &row);
      fn(first_row + r, row);
    }
  });
}

std::unique_ptr<Table> Table::CollectRows(
    std::string name, const std::vector<uint64_t>& sorted_indices,
    ThreadPool* pool) const {
  for (size_t i = 0; i < sorted_indices.size(); ++i) {
    CAPD_CHECK_LT(sorted_indices[i], num_rows_) << "table " << name_;
    if (i > 0) {
      CAPD_CHECK_LE(sorted_indices[i - 1], sorted_indices[i])
          << "table " << name_ << ": indices must be sorted ascending";
    }
  }
  // The output's blocks are sized up front, so the runs below write
  // disjoint cells.
  auto out = std::make_unique<Table>(std::move(name), schema_);
  out->num_rows_ = sorted_indices.size();
  for (uint64_t first = 0; first < out->num_rows_; first += out->block_rows_) {
    out->blocks_.emplace_back(schema_);
    out->blocks_.back().Resize(
        std::min(out->block_rows_, out->num_rows_ - first));
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
  // One read per touched block, keeping only its requested rows. Blocks
  // are independent, so they are read across the pool.
  ParallelFor(pool, run_begins.size() - 1, [&](size_t k) {
    const size_t begin = run_begins[k];
    const size_t end = run_begins[k + 1];
    const uint64_t b = sorted_indices[begin] / block_rows_;
    std::vector<uint64_t> keep;  // block-local
    keep.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      keep.push_back(sorted_indices[i] - b * block_rows_);
    }
    ColumnBlock scratch(schema_);
    const ColumnBlock& block = ReadBlock(b, &keep, &scratch);
    for (size_t j = 0; j < keep.size(); ++j) {
      const uint64_t i = begin + j;
      ColumnBlock& to = out->blocks_[i / out->block_rows_];
      to.CopyRow(i % out->block_rows_, block, j);
    }
  });
  return out;
}

uint64_t Table::HeapPages() const {
  const uint64_t row_bytes = schema_.RowWidth() + kRowOverhead;
  const uint64_t rows_per_page = kPageCapacity / row_bytes;
  CAPD_CHECK_GT(rows_per_page, 0u) << "row wider than a page";
  return (num_rows_ + rows_per_page - 1) / rows_per_page;
}

}  // namespace capd
