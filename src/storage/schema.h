// Table schemas. Every column has a fixed on-page width (SQL-Server-style
// fixed-length CHAR/INT encodings) so that the compression codecs have
// leading-zero / shared-prefix redundancy to eliminate — exactly the
// redundancy the paper's compression-fraction analysis is about.
#ifndef CAPD_STORAGE_SCHEMA_H_
#define CAPD_STORAGE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/value.h"

namespace capd {

struct Column {
  std::string name;
  ValueType type = ValueType::kInt64;
  // On-page bytes for one field. Int64/Double/Date are 8; strings use their
  // declared CHAR(n) width.
  uint32_t width = 8;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  const std::vector<Column>& columns() const { return columns_; }
  const Column& column(size_t i) const;
  size_t num_columns() const { return columns_.size(); }

  // Index of `name`; aborts if absent (schemas are program-defined).
  size_t ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const;

  // Sum of column widths: the uncompressed fixed part of a row.
  uint32_t RowWidth() const { return row_width_; }

 private:
  std::vector<Column> columns_;
  uint32_t row_width_ = 0;
};

// Page geometry (SQL Server style: 8 KiB pages with a 96-byte header).
inline constexpr uint32_t kPageSize = 8192;
inline constexpr uint32_t kPageHeaderSize = 96;
inline constexpr uint32_t kPageCapacity = kPageSize - kPageHeaderSize;
// Per-row slot overhead in the uncompressed format.
inline constexpr uint32_t kRowOverhead = 2;

}  // namespace capd

#endif  // CAPD_STORAGE_SCHEMA_H_
