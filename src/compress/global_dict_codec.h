// Global dictionary encoding: one dictionary per column spanning the whole
// index (DB2 style). Pages store fixed-width pointers into the dictionary;
// the dictionary itself is charged once via IndexOverheadBytes(). Order
// independent: page contents do not change the dictionary or pointer sizes.
// Probing is heterogeneous (std::less<> on string_views into the flat
// arena), so neither building pointer arrays nor measuring them copies any
// field bytes.
#ifndef CAPD_COMPRESS_GLOBAL_DICT_CODEC_H_
#define CAPD_COMPRESS_GLOBAL_DICT_CODEC_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/codec.h"

namespace capd {

class GlobalDictCodec : public Codec {
 public:
  // Builds per-column dictionaries over `page` (the rows the index will
  // contain, rendered under the index schema), interning its cells.
  static std::unique_ptr<GlobalDictCodec> Build(const FlatPage& page);

  CompressionKind kind() const override { return CompressionKind::kGlobalDict; }
  std::string CompressPage(const FlatSpan& span) const override;
  uint64_t MeasurePage(const FlatSpan& span) const override;
  FlatPage DecompressPage(std::string_view blob) const override;
  uint64_t IndexOverheadBytes() const override;

  // Pointer width (bytes) used for column c.
  uint32_t PointerWidth(size_t c) const { return ptr_widths_[c]; }
  size_t DictionarySize(size_t c) const { return dicts_[c].size(); }

 private:
  explicit GlobalDictCodec(std::vector<uint32_t> widths)
      : Codec(std::move(widths)) {}

  // dicts_[c]: encoded field -> id (std::less<> enables string_view probes);
  // rdicts_[c][id]: view of the owning map key.
  std::vector<std::map<std::string, uint32_t, std::less<>>> dicts_;
  std::vector<std::vector<std::string_view>> rdicts_;
  std::vector<uint32_t> ptr_widths_;
};

}  // namespace capd

#endif  // CAPD_COMPRESS_GLOBAL_DICT_CODEC_H_
