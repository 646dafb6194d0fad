#include "compress/rle_codec.h"

#include <cstring>

#include "common/logging.h"
#include "compress/null_suppression.h"
#include "compress/varint.h"

namespace capd {
namespace {

// Walks one flat column slice (n cells of `w` bytes at `base`) and calls
// emit(run_length, value_view) once per run, in order. Equality against the
// run head is a single memcmp over the fixed-width cell — the compiler turns
// the common 8-byte widths into one load-compare pair.
template <typename EmitFn>
void ForEachRun(const char* base, uint32_t w, size_t n, EmitFn&& emit) {
  size_t i = 0;
  while (i < n) {
    const char* head = base + i * w;
    size_t j = i + 1;
    while (j < n && std::memcmp(base + j * w, head, w) == 0) ++j;
    emit(j - i, FieldView(head, w));
    i = j;
  }
}

}  // namespace

// Blob layout: varint n_rows; per column: runs of (varint run_len,
// NS(value)) until n_rows values are covered.
std::string RleCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  std::string blob;
  const size_t n = span.num_rows();
  PutVarint(n, &blob);
  for (size_t c = 0; c < num_columns(); ++c) {
    ForEachRun(span.column_data(c), widths_[c], n,
               [&blob](size_t run, FieldView value) {
                 PutVarint(run, &blob);
                 NsCompressField(value, &blob);
               });
  }
  return blob;
}

uint64_t RleCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  uint64_t total = VarintSize(n);
  for (size_t c = 0; c < num_columns(); ++c) {
    ForEachRun(span.column_data(c), widths_[c], n,
               [&total](size_t run, FieldView value) {
                 total += VarintSize(run) + NsFieldSize(value);
               });
  }
  return total;
}

FlatPage RleCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page(widths_, n);
  // One value scratch reused across runs: capacity sticks at the column
  // width, so steady state decodes without per-run allocation.
  std::string value;
  for (size_t c = 0; c < num_columns(); ++c) {
    value.reserve(widths_[c]);
    uint64_t filled = 0;
    while (filled < n) {
      const uint64_t run = GetVarint(blob, &offset);
      CAPD_CHECK_GT(run, 0u);
      CAPD_CHECK_LE(filled + run, n);
      value.clear();
      NsDecompressField(blob, &offset, widths_[c], &value);
      for (uint64_t k = 0; k < run; ++k) page.SetField(filled++, c, value);
    }
  }
  return page;
}

}  // namespace capd
