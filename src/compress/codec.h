// Page codec interface plus the trivial (NONE) and ROW (null suppression)
// codecs. A codec turns one flat columnar span (FlatSpan: rows with fixed
// width fields in a single arena) into a self-describing byte blob, and the
// blob back into a FlatPage; blob size is what the index builder packs
// against the 8 KiB page capacity.
//
// Two entry points per codec, with a pinned contract:
//   - CompressPage(span): materializes the blob (round-trips through
//     DecompressPage);
//   - MeasurePage(span):  the exact blob size in bytes WITHOUT building it.
//     MeasurePage(s) == CompressPage(s).size() for every codec and span —
//     the size-only path is what the page packer and SampleCF drive, so the
//     estimation hot loop never materializes compressed output at all.
#ifndef CAPD_COMPRESS_CODEC_H_
#define CAPD_COMPRESS_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compress/compression_kind.h"
#include "compress/flat_page.h"

namespace capd {

// One page's worth of rows, as chosen by Codec::FitRows.
struct PageFit {
  size_t rows = 0;     // rows placed on the page (always >= 1)
  uint64_t bytes = 0;  // MeasurePage of exactly those rows
};

class Codec {
 public:
  explicit Codec(std::vector<uint32_t> widths) : widths_(std::move(widths)) {
    for (uint32_t w : widths_) row_width_ += w;
  }
  virtual ~Codec() = default;

  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  virtual CompressionKind kind() const = 0;

  // Serializes the span. The blob must round-trip through DecompressPage.
  virtual std::string CompressPage(const FlatSpan& span) const = 0;

  // Exact size in bytes of CompressPage(span), computed without
  // materializing the blob. Size-only kernels: no output buffer, no
  // per-field copies.
  virtual uint64_t MeasurePage(const FlatSpan& span) const = 0;

  // Greedy page fill from row `begin` (< page.num_rows()): the longest run
  // of rows whose MeasurePage is <= capacity, and its size. At least one
  // row is always taken; a single row over capacity comes back with its
  // full size, for the caller to spill. The default is an exponential probe
  // plus binary search over MeasurePage — O(log n) measurements. It returns
  // the longest fitting run only when MeasurePage is non-decreasing in span
  // length (property-tested per codec in page_fit_test). A monotone codec
  // may override this with a forward pass that returns the same fit.
  virtual PageFit FitRows(const FlatPage& page, size_t begin,
                          uint64_t capacity) const;

  // Inverse of CompressPage: the page whose span was compressed.
  virtual FlatPage DecompressPage(std::string_view blob) const = 0;

  // Storage charged once per index regardless of page count (e.g. the
  // global dictionary). Zero for page-local codecs.
  virtual uint64_t IndexOverheadBytes() const { return 0; }

  bool order_dependent() const { return IsOrderDependent(kind()); }
  const std::vector<uint32_t>& widths() const { return widths_; }
  size_t num_columns() const { return widths_.size(); }
  // Bytes per row across all columns (fields only, no row overhead).
  size_t row_width() const { return row_width_; }

 protected:
  // Aborts unless the span's column widths match the codec's. O(columns):
  // field widths are structural in a FlatPage, so there is nothing
  // per-cell to validate.
  void ValidateSpan(const FlatSpan& span) const;

  std::vector<uint32_t> widths_;
  size_t row_width_ = 0;
};

// No compression: fields stored verbatim plus the per-row slot overhead.
class NoneCodec : public Codec {
 public:
  explicit NoneCodec(std::vector<uint32_t> widths) : Codec(std::move(widths)) {}

  CompressionKind kind() const override { return CompressionKind::kNone; }
  std::string CompressPage(const FlatSpan& span) const override;
  uint64_t MeasurePage(const FlatSpan& span) const override;
  FlatPage DecompressPage(std::string_view blob) const override;
};

// ROW compression: every field null-suppressed independently. Order
// independent: the page size depends only on the multiset of values.
class RowCodec : public Codec {
 public:
  explicit RowCodec(std::vector<uint32_t> widths) : Codec(std::move(widths)) {}

  CompressionKind kind() const override { return CompressionKind::kRow; }
  std::string CompressPage(const FlatSpan& span) const override;
  uint64_t MeasurePage(const FlatSpan& span) const override;
  // Forward pass: rows are sized independently, so each row's NS bytes are
  // added once.
  PageFit FitRows(const FlatPage& page, size_t begin,
                  uint64_t capacity) const override;
  FlatPage DecompressPage(std::string_view blob) const override;
};

}  // namespace capd

#endif  // CAPD_COMPRESS_CODEC_H_
