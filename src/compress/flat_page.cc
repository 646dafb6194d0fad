#include "compress/flat_page.h"

#include <cstring>

#include "common/logging.h"
#include "storage/encoding.h"

namespace capd {

FlatPage::FlatPage(std::vector<uint32_t> widths, size_t rows)
    : widths_(std::move(widths)), rows_(rows) {
  col_offsets_.reserve(widths_.size());
  for (uint32_t w : widths_) {
    col_offsets_.push_back(row_width_ * rows_);
    row_width_ += w;
  }
  // Exactly one arena allocation per page, regardless of cell count.
  arena_.assign(row_width_ * rows_, '\0');
}

void FlatPage::SetField(size_t r, size_t c, FieldView bytes) {
  CAPD_CHECK_LT(r, rows_);
  CAPD_CHECK_LT(c, widths_.size());
  CAPD_CHECK_EQ(bytes.size(), static_cast<size_t>(widths_[c]))
      << "field of column " << c << " has the wrong width";
  std::memcpy(arena_.data() + col_offsets_[c] + r * widths_[c], bytes.data(),
              bytes.size());
}

FlatSpan FlatPage::span(size_t begin, size_t end) const {
  CAPD_CHECK_LE(begin, end);
  CAPD_CHECK_LE(end, rows_);
  return FlatSpan(this, begin, end - begin);
}

FlatPage FlatPage::FromRows(const std::vector<Row>& rows, const Schema& schema,
                            size_t begin, size_t end) {
  CAPD_CHECK_LE(begin, end);
  CAPD_CHECK_LE(end, rows.size());
  FlatPage page(ColumnWidths(schema), end - begin);
  page.arena_.clear();  // re-rendered by appending; keeps the allocation
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const Column& col = schema.column(c);
    for (size_t i = begin; i < end; ++i) {
      const Row& row = rows[i];
      CAPD_CHECK_EQ(row.size(), schema.num_columns());
      // EncodeField appends exactly col.width bytes to the arena; the
      // column-major fill order matches col_offsets_.
      EncodeField(row[c], col, &page.arena_);
    }
  }
  CAPD_CHECK_EQ(page.arena_.size(), page.row_width_ * page.rows_);
  return page;
}

std::vector<uint32_t> ColumnWidths(const Schema& schema) {
  std::vector<uint32_t> widths;
  widths.reserve(schema.num_columns());
  for (const Column& c : schema.columns()) widths.push_back(c.width);
  return widths;
}

}  // namespace capd
