#include "compress/global_dict_codec.h"

#include "common/logging.h"
#include "compress/varint.h"

namespace capd {
namespace {

uint32_t BytesFor(uint64_t distinct) {
  uint32_t w = 1;
  uint64_t cap = 256;
  while (cap < distinct) {
    cap <<= 8;
    ++w;
  }
  return w;
}

}  // namespace

std::unique_ptr<GlobalDictCodec> GlobalDictCodec::Build(const FlatPage& page) {
  auto codec =
      std::unique_ptr<GlobalDictCodec>(new GlobalDictCodec(page.widths()));
  const size_t ncols = page.num_columns();
  codec->dicts_.resize(ncols);
  codec->rdicts_.resize(ncols);
  codec->ptr_widths_.resize(ncols);
  // Repeated cells (the common case) probe the dictionary in place; only
  // first occurrences copy into a map key, which rdicts_ then views (map
  // keys are address-stable). Ids follow each column's first appearances.
  for (size_t c = 0; c < ncols; ++c) {
    auto& dict = codec->dicts_[c];
    for (size_t r = 0; r < page.num_rows(); ++r) {
      const FieldView cell = page.field(r, c);
      if (dict.find(cell) == dict.end()) {
        const uint32_t id = static_cast<uint32_t>(codec->rdicts_[c].size());
        const auto [it, inserted] = dict.emplace(std::string(cell), id);
        CAPD_CHECK(inserted);
        codec->rdicts_[c].push_back(it->first);
      }
    }
    codec->ptr_widths_[c] =
        BytesFor(std::max<uint64_t>(1, codec->rdicts_[c].size()));
  }
  return codec;
}

// Blob layout: varint n_rows, then column-major pointer arrays of fixed
// per-column width.
std::string GlobalDictCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  std::string blob;
  const size_t n = span.num_rows();
  blob.reserve(MeasurePage(span));
  PutVarint(n, &blob);
  for (size_t c = 0; c < num_columns(); ++c) {
    const uint32_t pw = ptr_widths_[c];
    for (size_t i = 0; i < n; ++i) {
      const auto it = dicts_[c].find(span.field(i, c));
      CAPD_CHECK(it != dicts_[c].end())
          << "value missing from global dictionary (column " << c << ")";
      const uint32_t id = it->second;
      for (uint32_t b = 0; b < pw; ++b) {
        blob.push_back(static_cast<char>((id >> (8 * (pw - 1 - b))) & 0xff));
      }
    }
  }
  return blob;
}

uint64_t GlobalDictCodec::MeasurePage(const FlatSpan& span) const {
  // Pointer arrays are fixed-width, so the size is a closed form; the
  // membership CHECK stays on the materializing path.
  ValidateSpan(span);
  const uint64_t n = span.num_rows();
  uint64_t total = VarintSize(n);
  for (size_t c = 0; c < num_columns(); ++c) total += n * ptr_widths_[c];
  return total;
}

FlatPage GlobalDictCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page(widths_, n);
  for (size_t c = 0; c < num_columns(); ++c) {
    const uint32_t pw = ptr_widths_[c];
    for (uint64_t i = 0; i < n; ++i) {
      CAPD_CHECK_LE(offset + pw, blob.size());
      uint32_t id = 0;
      for (uint32_t b = 0; b < pw; ++b) {
        id = (id << 8) | static_cast<uint8_t>(blob[offset++]);
      }
      CAPD_CHECK_LT(id, rdicts_[c].size());
      page.SetField(i, c, rdicts_[c][id]);
    }
  }
  return page;
}

uint64_t GlobalDictCodec::IndexOverheadBytes() const {
  uint64_t bytes = 0;
  for (size_t c = 0; c < rdicts_.size(); ++c) {
    for (const std::string_view entry : rdicts_[c]) {
      bytes += VarintSize(entry.size()) + entry.size();
    }
  }
  return bytes;
}

}  // namespace capd
