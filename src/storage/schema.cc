#include "storage/schema.h"

#include "common/logging.h"

namespace capd {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (const Column& c : columns_) {
    CAPD_CHECK_GT(c.width, 0u) << "column " << c.name;
    row_width_ += c.width;
  }
}

const Column& Schema::column(size_t i) const {
  CAPD_CHECK_LT(i, columns_.size());
  return columns_[i];
}

size_t Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  CAPD_CHECK(false) << "no such column: " << name;
  return 0;
}

bool Schema::HasColumn(const std::string& name) const {
  for (const Column& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

}  // namespace capd
