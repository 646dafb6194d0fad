// Codec construction helper. Global dictionary needs the index's rows to
// build its dictionaries, so the factory takes the whole rendered index
// page; the page-local codecs read only its column widths.
#ifndef CAPD_COMPRESS_CODEC_FACTORY_H_
#define CAPD_COMPRESS_CODEC_FACTORY_H_

#include <memory>

#include "compress/codec.h"

namespace capd {

std::unique_ptr<Codec> MakeCodec(CompressionKind kind, const FlatPage& page);

}  // namespace capd

#endif  // CAPD_COMPRESS_CODEC_FACTORY_H_
