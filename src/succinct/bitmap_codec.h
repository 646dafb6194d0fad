// BITMAP candidate structure: per-distinct-value WAH-compressed bitmaps with
// a rank/select directory, packaged as a page codec under the PR-9 contract
// (MeasurePage(span) == CompressPage(span).size(), exact and size-only).
//
// Blob layout:
//   varint n_rows
//   per column: 1 mode byte
//     mode 0 (NS fallback): n_rows null-suppressed fields in row order
//     mode 1 (bitmap): varint d; then per distinct value in first-appearance
//       order: NS(value), varint num_words, num_words little-endian 32-bit
//       WAH words encoding that value's n_rows-bit membership bitmap
// A column uses mode 1 iff its distinct count is <= kMaxDistinctPerColumn
// AND the bitmap payload is no larger than the NS payload — both decided
// from the same size-only arithmetic in MeasurePage and CompressPage, so the
// two always agree. Decompression expands each bitmap through
// WahBitmap::ToBitVector and places values via Select1, making the
// rank/select directory load-bearing in the product path.
#ifndef CAPD_SUCCINCT_BITMAP_CODEC_H_
#define CAPD_SUCCINCT_BITMAP_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compress/codec.h"

namespace capd {

class BitmapCodec : public Codec {
 public:
  // Columns with more distinct values than this per page fall back to NS
  // mode (and DecompressPage rejects blobs claiming more — see death tests).
  static constexpr uint64_t kMaxDistinctPerColumn = 64;

  explicit BitmapCodec(std::vector<uint32_t> widths);

  CompressionKind kind() const override { return CompressionKind::kBitmap; }
  std::string CompressPage(const FlatSpan& span) const override;
  uint64_t MeasurePage(const FlatSpan& span) const override;
  FlatPage DecompressPage(std::string_view blob) const override;
};

}  // namespace capd

#endif  // CAPD_SUCCINCT_BITMAP_CODEC_H_
