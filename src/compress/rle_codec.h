// Run-length encoding, column-major within each page. Order dependent in the
// extreme: sorted leading columns collapse to a handful of runs while
// fragmented trailing columns do not — the L(I_X, Y) run-length quantity in
// Section 4.2 is precisely what governs this codec's size. Run detection
// works on flat column slices: one memcmp per candidate cell against the
// run head, no per-field string materialization.
#ifndef CAPD_COMPRESS_RLE_CODEC_H_
#define CAPD_COMPRESS_RLE_CODEC_H_

#include <string>
#include <vector>

#include "compress/codec.h"

namespace capd {

class RleCodec : public Codec {
 public:
  explicit RleCodec(std::vector<uint32_t> widths) : Codec(std::move(widths)) {}

  CompressionKind kind() const override { return CompressionKind::kRle; }
  std::string CompressPage(const FlatSpan& span) const override;
  uint64_t MeasurePage(const FlatSpan& span) const override;
  FlatPage DecompressPage(std::string_view blob) const override;
};

}  // namespace capd

#endif  // CAPD_COMPRESS_RLE_CODEC_H_
