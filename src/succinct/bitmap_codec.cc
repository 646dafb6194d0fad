#include "succinct/bitmap_codec.h"

#include <cstring>
#include <utility>

#include "common/logging.h"
#include "compress/null_suppression.h"
#include "compress/varint.h"
#include "succinct/wah_bitmap.h"

namespace capd {
namespace {

constexpr uint8_t kModeNs = 0;
constexpr uint8_t kModeBitmap = 1;

// Run-length view of one flat column slice, with runs labeled by the
// first-appearance index of their value. Adjacent runs always differ, so no
// merging is needed. Collection stops (capped = true) the moment the
// distinct count would exceed the bitmap cap — the caller falls back to NS.
struct ColumnRuns {
  bool capped = false;
  std::vector<FieldView> distinct;                   // first-appearance order
  std::vector<std::pair<uint64_t, uint32_t>> runs;  // (length, distinct idx)
};

ColumnRuns CollectRuns(const char* base, uint32_t w, size_t n) {
  ColumnRuns out;
  size_t i = 0;
  while (i < n) {
    const char* head = base + i * w;
    size_t j = i + 1;
    while (j < n && std::memcmp(base + j * w, head, w) == 0) ++j;
    uint32_t idx = static_cast<uint32_t>(out.distinct.size());
    for (uint32_t k = 0; k < out.distinct.size(); ++k) {
      if (std::memcmp(out.distinct[k].data(), head, w) == 0) {
        idx = k;
        break;
      }
    }
    if (idx == out.distinct.size()) {
      if (out.distinct.size() == BitmapCodec::kMaxDistinctPerColumn) {
        out.capped = true;
        return out;
      }
      out.distinct.emplace_back(head, w);
    }
    out.runs.emplace_back(j - i, idx);
    i = j;
  }
  return out;
}

// Payload bytes of bitmap mode (everything after the mode byte), via the
// counting WAH twin — structurally the same encoder CompressPage drives.
uint64_t BitmapPayloadSize(const ColumnRuns& cr) {
  uint64_t total = VarintSize(cr.distinct.size());
  for (uint32_t k = 0; k < cr.distinct.size(); ++k) {
    total += NsFieldSize(cr.distinct[k]);
    WahSize sizer;
    for (const auto& [len, idx] : cr.runs) sizer.AppendRun(idx == k, len);
    const size_t words = sizer.FinishWordCount();
    total += VarintSize(words) + words * sizeof(uint32_t);
  }
  return total;
}

// Payload bytes of NS fallback mode, from runs (all cells in a run are
// equal, so one NsFieldSize per run suffices).
uint64_t NsPayloadFromRuns(const ColumnRuns& cr) {
  uint64_t total = 0;
  for (const auto& [len, idx] : cr.runs) {
    total += len * NsFieldSize(cr.distinct[idx]);
  }
  return total;
}

// NS payload for a capped column: direct cell sweep.
uint64_t NsPayloadFromCells(const char* base, uint32_t w, size_t n) {
  uint64_t total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += NsFieldSize(FieldView(base + r * w, w));
  }
  return total;
}

void AppendLe32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t ReadLe32(std::string_view data, size_t* offset) {
  CAPD_CHECK_LE(*offset + 4, data.size()) << "truncated WAH words";
  const auto* p = reinterpret_cast<const unsigned char*>(data.data() + *offset);
  *offset += 4;
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

BitmapCodec::BitmapCodec(std::vector<uint32_t> widths)
    : Codec(std::move(widths)) {
  for (uint32_t w : widths_) {
    CAPD_CHECK_LE(w, kMaxNsFieldWidth)
        << "BitmapCodec: NS-backed field width exceeds 255";
  }
}

uint64_t BitmapCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  uint64_t total = VarintSize(n);
  for (size_t c = 0; c < num_columns(); ++c) {
    const char* base = span.column_data(c);
    const uint32_t w = widths_[c];
    total += 1;  // mode byte
    const ColumnRuns cr = CollectRuns(base, w, n);
    if (cr.capped) {
      total += NsPayloadFromCells(base, w, n);
      continue;
    }
    const uint64_t bitmap = BitmapPayloadSize(cr);
    const uint64_t ns = NsPayloadFromRuns(cr);
    total += bitmap <= ns ? bitmap : ns;
  }
  return total;
}

std::string BitmapCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  std::string blob;
  const size_t n = span.num_rows();
  PutVarint(n, &blob);
  for (size_t c = 0; c < num_columns(); ++c) {
    const char* base = span.column_data(c);
    const uint32_t w = widths_[c];
    const ColumnRuns cr = CollectRuns(base, w, n);
    // Same decision arithmetic as MeasurePage, so blob size == measure.
    const bool use_bitmap =
        !cr.capped && BitmapPayloadSize(cr) <= NsPayloadFromRuns(cr);
    if (!use_bitmap) {
      blob.push_back(static_cast<char>(kModeNs));
      for (size_t r = 0; r < n; ++r) {
        NsCompressField(FieldView(base + r * w, w), &blob);
      }
      continue;
    }
    blob.push_back(static_cast<char>(kModeBitmap));
    PutVarint(cr.distinct.size(), &blob);
    for (uint32_t k = 0; k < cr.distinct.size(); ++k) {
      NsCompressField(cr.distinct[k], &blob);
      WahBitmap bm;
      for (const auto& [len, idx] : cr.runs) bm.AppendRun(idx == k, len);
      bm.Finish();
      PutVarint(bm.words().size(), &blob);
      for (uint32_t word : bm.words()) AppendLe32(word, &blob);
    }
  }
  return blob;
}

FlatPage BitmapCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page(widths_, n);
  std::string value;
  for (size_t c = 0; c < num_columns(); ++c) {
    CAPD_CHECK_LT(offset, blob.size()) << "truncated bitmap blob";
    const uint8_t mode = static_cast<uint8_t>(blob[offset++]);
    if (mode == kModeNs) {
      for (uint64_t r = 0; r < n; ++r) {
        value.clear();
        NsDecompressField(blob, &offset, widths_[c], &value);
        page.SetField(r, c, value);
      }
      continue;
    }
    CAPD_CHECK_EQ(mode, kModeBitmap) << "unknown bitmap column mode";
    const uint64_t d = GetVarint(blob, &offset);
    CAPD_CHECK_LE(d, kMaxDistinctPerColumn)
        << "bitmap blob exceeds distinct-count cap";
    uint64_t placed = 0;
    for (uint64_t k = 0; k < d; ++k) {
      value.clear();
      NsDecompressField(blob, &offset, widths_[c], &value);
      const uint64_t num_words = GetVarint(blob, &offset);
      std::vector<uint32_t> words;
      words.reserve(num_words);
      for (uint64_t i = 0; i < num_words; ++i) {
        words.push_back(ReadLe32(blob, &offset));
      }
      // Rank/select is the query path: expand the WAH runs into a BitVector
      // and place this value at every Select1 position.
      const WahBitmap bm = WahBitmap::FromWords(words, n);
      const BitVector bv = bm.ToBitVector();
      const size_t ones = bv.num_ones();
      for (size_t i = 0; i < ones; ++i) {
        page.SetField(bv.Select1(i), c, value);
      }
      placed += ones;
    }
    CAPD_CHECK_EQ(placed, n) << "bitmap column does not cover every row";
  }
  return page;
}

}  // namespace capd
