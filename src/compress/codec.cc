#include "compress/codec.h"

#include <algorithm>

#include "common/logging.h"
#include "compress/null_suppression.h"
#include "compress/varint.h"

namespace capd {

void Codec::ValidateSpan(const FlatSpan& span) const {
  CAPD_CHECK_EQ(span.num_columns(), num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    CAPD_CHECK_EQ(span.width(c), widths_[c]);
  }
}

PageFit Codec::FitRows(const FlatPage& page, size_t begin,
                       uint64_t capacity) const {
  const size_t n = page.num_rows();
  CAPD_CHECK_LT(begin, n);
  // Each probe is a measurement over an O(1) span slice — no blob, no
  // per-field strings.
  auto blob_size = [&](size_t b, size_t e) {
    return MeasurePage(page.span(b, e));
  };
  // Exponential probe for an upper bound on rows that fit.
  size_t lo = 1;  // we always place at least one row per page
  size_t hi = 1;
  while (begin + hi <= n && blob_size(begin, begin + hi) <= capacity) {
    if (begin + hi == n) break;
    lo = hi;
    hi = hi * 2;
  }
  size_t take;
  if (blob_size(begin, begin + std::min(hi, n - begin)) <= capacity) {
    take = std::min(hi, n - begin);
  } else {
    // Binary search in (lo, hi): lo fits, hi does not.
    size_t bad = std::min(hi, n - begin);
    size_t good = lo;
    while (good + 1 < bad) {
      const size_t mid = good + (bad - good) / 2;
      if (blob_size(begin, begin + mid) <= capacity) {
        good = mid;
      } else {
        bad = mid;
      }
    }
    take = good;
  }
  return {take, blob_size(begin, begin + take)};
}

std::string NoneCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  std::string blob;
  blob.reserve(MeasurePage(span));
  PutVarint(n, &blob);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) blob.append(span.field(r, c));
    blob.append(kRowOverhead, '\0');  // slot-array cost of the row format
  }
  return blob;
}

uint64_t NoneCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const uint64_t n = span.num_rows();
  return VarintSize(n) + n * (row_width() + kRowOverhead);
}

FlatPage NoneCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page(widths_, n);
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      CAPD_CHECK_LE(offset + widths_[c], blob.size());
      page.SetField(r, c, blob.substr(offset, widths_[c]));
      offset += widths_[c];
    }
    offset += kRowOverhead;
  }
  return page;
}

std::string RowCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  std::string blob;
  blob.reserve(MeasurePage(span));
  PutVarint(n, &blob);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      NsCompressField(span.field(r, c), &blob);
    }
  }
  return blob;
}

uint64_t RowCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const uint64_t n = span.num_rows();
  uint64_t total = VarintSize(n);
  // Column-major: each column's cells are contiguous, so the SWAR
  // CountLeadingZeros kernel streams straight through the arena. Stored NS
  // bytes per cell are 1 + width - leading_zeros.
  for (size_t c = 0; c < num_columns(); ++c) {
    const uint32_t w = widths_[c];
    CAPD_CHECK_LE(w, kMaxNsFieldWidth);
    const char* base = span.column_data(c);
    uint64_t zeros = 0;
    for (uint64_t r = 0; r < n; ++r) {
      zeros += CountLeadingZeros(FieldView(base + r * w, w));
    }
    total += n * (1 + static_cast<uint64_t>(w)) - zeros;
  }
  return total;
}

PageFit RowCodec::FitRows(const FlatPage& page, size_t begin,
                          uint64_t capacity) const {
  ValidateSpan(page.span());
  const size_t n = page.num_rows();
  CAPD_CHECK_LT(begin, n);
  for (uint32_t w : widths_) CAPD_CHECK_LE(w, kMaxNsFieldWidth);
  // size(k) = VarintSize(k) + NS bytes of the first k rows; grow k until
  // the next row would overflow.
  uint64_t payload = 0;
  size_t k = 0;
  for (size_t r = begin; r < n; ++r) {
    uint64_t row_bytes = 0;
    for (size_t c = 0; c < num_columns(); ++c) {
      row_bytes += 1 + widths_[c] - CountLeadingZeros(page.field(r, c));
    }
    if (k > 0 && VarintSize(k + 1) + payload + row_bytes > capacity) break;
    payload += row_bytes;
    ++k;
  }
  return {k, VarintSize(k) + payload};
}

FlatPage RowCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page(widths_, n);
  std::string field;  // one scratch; its capacity settles at the widest
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      field.clear();
      NsDecompressField(blob, &offset, widths_[c], &field);
      page.SetField(r, c, field);
    }
  }
  return page;
}

}  // namespace capd
