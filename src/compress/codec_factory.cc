#include "compress/codec_factory.h"

#include "common/logging.h"
#include "compress/global_dict_codec.h"
#include "compress/page_codec.h"
#include "compress/rle_codec.h"
#include "succinct/bitmap_codec.h"

namespace capd {

std::unique_ptr<Codec> MakeCodec(CompressionKind kind, const FlatPage& page) {
  switch (kind) {
    case CompressionKind::kNone:
      return std::make_unique<NoneCodec>(page.widths());
    case CompressionKind::kRow:
      return std::make_unique<RowCodec>(page.widths());
    case CompressionKind::kPage:
      return std::make_unique<PageCodec>(page.widths());
    case CompressionKind::kGlobalDict:
      return GlobalDictCodec::Build(page);
    case CompressionKind::kRle:
      return std::make_unique<RleCodec>(page.widths());
    case CompressionKind::kBitmap:
      return std::make_unique<BitmapCodec>(page.widths());
  }
  CAPD_CHECK(false) << "unknown compression kind";
  return nullptr;
}

}  // namespace capd
