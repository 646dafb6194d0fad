// Flat columnar page representation: the one page type of the codec layer.
// A FlatPage renders a batch of rows into ONE arena-backed byte buffer laid
// out column-major (all of column 0's fixed-width cells, then column 1's,
// ...), with a per-column offset array into the arena. Cells are addressed
// as string_view FieldViews straight into the arena — building a page costs
// a handful of allocations total (arena + offset vectors) instead of one
// std::string per field, and a FlatSpan lets the page packer probe any
// contiguous row range without copying or re-encoding anything. Codecs
// compress FlatSpans and decompress back into a FlatPage, so a round trip
// compares whole pages.
#ifndef CAPD_COMPRESS_FLAT_PAGE_H_
#define CAPD_COMPRESS_FLAT_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/schema.h"

namespace capd {

// A field rendered to its fixed column width, viewed in place inside a
// FlatPage arena. Never owns memory; valid while the FlatPage lives.
using FieldView = std::string_view;

class FlatPage;

// Cheap view of the contiguous row range [begin, begin+rows) of a FlatPage.
// This is what the codecs consume: slicing is O(1), so the page packer's
// exponential/binary size probes re-measure overlapping ranges without ever
// re-encoding a field.
class FlatSpan {
 public:
  FlatSpan() = default;
  FlatSpan(const FlatPage* page, size_t begin, size_t rows)
      : page_(page), begin_(begin), rows_(rows) {}

  size_t num_rows() const { return rows_; }
  size_t num_columns() const;
  uint32_t width(size_t c) const;
  const std::vector<uint32_t>& widths() const;

  // Cell (span-local row r, column c) as a view into the page arena.
  FieldView field(size_t r, size_t c) const;

  // First byte of column c's first cell within the span. Column cells are
  // contiguous: cell r lives at column_data(c) + r * width(c). This is the
  // entry point for the SWAR/memcmp kernels.
  const char* column_data(size_t c) const;

 private:
  const FlatPage* page_ = nullptr;
  size_t begin_ = 0;
  size_t rows_ = 0;
};

class FlatPage {
 public:
  // An all-zero page of `rows` rows under `widths`: what the decoders fill
  // cell by cell through SetField.
  FlatPage(std::vector<uint32_t> widths, size_t rows);

  // Encodes rows[begin, end) under `schema` straight into the arena,
  // column-major. The arena is reserved to its exact final size up front:
  // one allocation regardless of row count or column widths.
  static FlatPage FromRows(const std::vector<Row>& rows, const Schema& schema,
                           size_t begin, size_t end);

  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return widths_.size(); }
  uint32_t width(size_t c) const { return widths_[c]; }
  const std::vector<uint32_t>& widths() const { return widths_; }
  // Bytes per row across all columns (fields only, no row overhead).
  size_t row_width() const { return row_width_; }

  FieldView field(size_t r, size_t c) const {
    return FieldView(arena_.data() + col_offsets_[c] + r * widths_[c],
                     widths_[c]);
  }
  const char* column_data(size_t c) const {
    return arena_.data() + col_offsets_[c];
  }

  // Overwrites cell (r, c). Aborts unless `bytes` is exactly width(c)
  // long: a page's widths are structural, so this is the one place a
  // mis-sized field can be caught.
  void SetField(size_t r, size_t c, FieldView bytes);

  FlatSpan span() const { return FlatSpan(this, 0, rows_); }
  // View of rows [begin, end).
  FlatSpan span(size_t begin, size_t end) const;

  // Whole-page view; lets FlatPage be passed wherever a FlatSpan is taken.
  operator FlatSpan() const { return span(); }  // NOLINT(runtime/explicit)

  // Same widths, row count and cell bytes.
  bool operator==(const FlatPage& other) const {
    return widths_ == other.widths_ && rows_ == other.rows_ &&
           arena_ == other.arena_;
  }

 private:
  std::vector<uint32_t> widths_;
  std::vector<size_t> col_offsets_;  // arena byte offset of column c
  size_t rows_ = 0;
  size_t row_width_ = 0;
  std::string arena_;  // column-major cell bytes, one buffer for the page
};

// Widths vector for a schema (helper for page/codec construction).
std::vector<uint32_t> ColumnWidths(const Schema& schema);

inline size_t FlatSpan::num_columns() const { return page_->num_columns(); }
inline uint32_t FlatSpan::width(size_t c) const { return page_->width(c); }
inline const std::vector<uint32_t>& FlatSpan::widths() const {
  return page_->widths();
}
inline FieldView FlatSpan::field(size_t r, size_t c) const {
  return page_->field(begin_ + r, c);
}
inline const char* FlatSpan::column_data(size_t c) const {
  return page_->column_data(c) + begin_ * page_->width(c);
}

}  // namespace capd

#endif  // CAPD_COMPRESS_FLAT_PAGE_H_
