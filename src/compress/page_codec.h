// PAGE compression: SQL Server's heavier package. Per page and per column it
// (1) extracts the byte-wise common prefix of all values as an anchor,
// (2) builds a local dictionary of repeated post-anchor remainders, and
// (3) null-suppresses whatever is stored literally. Order dependent: how
// many duplicates land in the same page depends on tuple order, which is
// exactly the fragmentation effect the paper's ORD-DEP deduction models.
// The dictionary is probed with interned slices (string_views into the flat
// arena) — neither counting nor sizing copies a single field.
#ifndef CAPD_COMPRESS_PAGE_CODEC_H_
#define CAPD_COMPRESS_PAGE_CODEC_H_

#include <string>
#include <vector>

#include "compress/codec.h"

namespace capd {

class PageCodec : public Codec {
 public:
  explicit PageCodec(std::vector<uint32_t> widths) : Codec(std::move(widths)) {}

  CompressionKind kind() const override { return CompressionKind::kPage; }
  std::string CompressPage(const FlatSpan& span) const override;
  uint64_t MeasurePage(const FlatSpan& span) const override;
  // One forward pass that updates each column's plan sizes per added row:
  // O(rows) map probes instead of O(log rows) full ColumnPlan rebuilds.
  // capacity must be below 32768 (kPageCapacity is), so that no page holds
  // a three-byte dictionary code.
  PageFit FitRows(const FlatPage& page, size_t begin,
                  uint64_t capacity) const override;
  FlatPage DecompressPage(std::string_view blob) const override;
};

}  // namespace capd

#endif  // CAPD_COMPRESS_PAGE_CODEC_H_
