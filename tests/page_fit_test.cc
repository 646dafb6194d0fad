// Page-fitting contracts of the codecs.
//
// MeasurePage must be non-decreasing in span length: the greedy packer
// looks for the longest row prefix whose blob fits a page, and that prefix
// is only well defined (and findable by search or by a forward pass alike)
// when growing a span never shrinks its blob. The sweep covers widths up to
// 255, null densities 0/0.4/1, low/mid/high distinct counts (the mid pool
// crosses the BITMAP distinct cap, so its NS-fallback switch happens inside
// the swept spans) and sorted inputs (PAGE anchors shrink row by row).
//
// Codec::FitRows overrides must then pick exactly the pages the search
// picks: PackPages is checked against the pre-FitRows packer, kept here
// verbatim, including one-giant-row spills, and every FitRows against the
// default search at several capacities.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"
#include "index/index_builder.h"
#include "storage/encoding.h"

namespace capd {
namespace {

struct DataCase {
  const char* name;
  std::vector<uint32_t> widths;
  size_t rows;
  double null_density;
  uint32_t distinct;  // per-column value pool size; 0 = every value fresh
  bool sorted;
};

std::vector<DataCase> Cases() {
  const std::vector<uint32_t> mixed = {8, 1, 37, 255, 3};
  const std::vector<uint32_t> narrow = {2, 3, 1};
  std::vector<DataCase> cases;
  for (const double density : {0.0, 0.4, 1.0}) {
    for (const uint32_t distinct : {3u, 80u, 0u}) {
      cases.push_back({"mixed", mixed, 160, density, distinct, false});
      cases.push_back({"narrow", narrow, 400, density, distinct, false});
    }
  }
  cases.push_back({"mixed-sorted", mixed, 160, 0.1, 0, true});
  cases.push_back({"narrow-sorted", narrow, 400, 0.1, 300, true});
  return cases;
}

Schema StringSchema(const std::vector<uint32_t>& widths) {
  std::vector<Column> cols;
  for (size_t c = 0; c < widths.size(); ++c) {
    cols.push_back({"c" + std::to_string(c), ValueType::kString, widths[c]});
  }
  return Schema(std::move(cols));
}

// A non-empty string of 1..w random nonzero bytes. Strings are left-padded
// to the column width, so shorter ones carry leading 0x00 bytes; an empty
// string is the all-zero (null-like) field.
std::string RandomValue(uint32_t w, Random* rng) {
  std::string s(1 + rng->Next(w), '\0');
  for (char& ch : s) ch = static_cast<char>(1 + rng->Next(255));
  return s;
}

std::vector<Row> MakeRows(const DataCase& dc, uint64_t seed) {
  Random rng(seed);
  std::vector<std::vector<std::string>> pools(dc.widths.size());
  for (size_t c = 0; c < dc.widths.size(); ++c) {
    for (uint32_t i = 0; i < dc.distinct; ++i) {
      pools[c].push_back(RandomValue(dc.widths[c], &rng));
    }
  }
  std::vector<Row> rows(dc.rows);
  for (Row& row : rows) {
    for (size_t c = 0; c < dc.widths.size(); ++c) {
      std::string v;
      if (!rng.Bernoulli(dc.null_density)) {
        v = dc.distinct == 0 ? RandomValue(dc.widths[c], &rng)
                             : pools[c][rng.Next(dc.distinct)];
      }
      row.push_back(Value::String(v));
    }
  }
  if (dc.sorted) {
    const Schema schema = StringSchema(dc.widths);
    std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      return EncodeFieldToString(a[0], schema.column(0)) <
             EncodeFieldToString(b[0], schema.column(0));
    });
  }
  return rows;
}

std::string Label(const DataCase& dc) {
  std::string label = dc.name;
  label += " density=" + std::to_string(dc.null_density);
  label += " distinct=" + std::to_string(dc.distinct);
  return label;
}

std::string KindName(CompressionKind kind) {
  std::string n = CompressionKindName(kind);
  n.erase(std::remove_if(n.begin(), n.end(),
                         [](char c) {
                           return !std::isalnum(static_cast<unsigned char>(c));
                         }),
          n.end());
  return n;
}

class PageFitTest : public ::testing::TestWithParam<CompressionKind> {};

// BITMAP is the one exception, and it is pinned rather than waved through:
// a WAH bitmap's trailing partial group is a literal word, and when a span
// grows to a multiple of 31 rows a now-uniform group merges into the
// preceding fill, so the blob can shrink at exactly those lengths (and only
// there — the distinct-cap switch to NS never shrinks it). BITMAP therefore
// keeps the search as its FitRows; its page boundaries are the search's.
TEST_P(PageFitTest, MeasureIsMonotoneInSpanLength) {
  const bool wah = GetParam() == CompressionKind::kBitmap;
  uint64_t seed = 100;
  size_t wah_drops = 0;
  for (const DataCase& dc : Cases()) {
    const Schema schema = StringSchema(dc.widths);
    const std::vector<Row> rows = MakeRows(dc, ++seed);
    const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
    const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), flat);
    const size_t n = flat.num_rows();
    for (const size_t begin : {size_t{0}, n / 3}) {
      uint64_t prev = codec->MeasurePage(flat.span(begin, begin));
      for (size_t end = begin + 1; end <= n; ++end) {
        const uint64_t cur = codec->MeasurePage(flat.span(begin, end));
        const bool group_boundary = (end - begin) % 31 == 0;
        if (wah && group_boundary && cur < prev) ++wah_drops;
        ASSERT_TRUE(cur >= prev || (wah && group_boundary))
            << Label(dc) << " begin=" << begin << " end=" << end;
        prev = cur;
      }
    }
  }
  if (wah) {
    EXPECT_GT(wah_drops, 0u) << "the pinned WAH exception never fired";
  }
}

// The page packer as it was before Codec::FitRows existed, kept verbatim as
// the oracle: exponential probe plus binary search over MeasurePage.
PackResult SearchPackPages(const std::vector<Row>& rows, const Schema& schema,
                           const Codec& codec) {
  PackResult result;
  if (rows.empty()) {
    result.pages = 1;  // an index always has at least its root page
    return result;
  }
  uint64_t pages = 0;
  uint64_t payload = 0;
  size_t begin = 0;
  const size_t n = rows.size();
  const FlatPage flat = FlatPage::FromRows(rows, schema, 0, n);
  auto blob_size = [&](size_t b, size_t e) {
    return static_cast<size_t>(codec.MeasurePage(flat.span(b, e)));
  };
  while (begin < n) {
    // Exponential probe for an upper bound on rows that fit.
    size_t lo = 1;  // we always place at least one row per page
    size_t hi = 1;
    while (begin + hi <= n && blob_size(begin, begin + hi) <= kPageCapacity) {
      if (begin + hi == n) break;
      lo = hi;
      hi = hi * 2;
    }
    size_t take;
    if (blob_size(begin, begin + std::min(hi, n - begin)) <= kPageCapacity) {
      take = std::min(hi, n - begin);
    } else {
      // Binary search in (lo, hi): lo fits, hi does not.
      size_t bad = std::min(hi, n - begin);
      size_t good = lo;
      while (good + 1 < bad) {
        const size_t mid = good + (bad - good) / 2;
        if (blob_size(begin, begin + mid) <= kPageCapacity) {
          good = mid;
        } else {
          bad = mid;
        }
      }
      take = good;
    }
    const size_t sz = blob_size(begin, begin + take);
    payload += sz;
    if (take == 1 && sz > kPageCapacity) {
      // One giant row: spill across multiple pages.
      pages += (sz + kPageCapacity - 1) / kPageCapacity;
    } else {
      pages += 1;
    }
    begin += take;
  }
  result.pages = pages;
  result.payload_bytes = payload;
  return result;
}

void ExpectSamePack(const std::vector<Row>& rows, const Schema& schema,
                    CompressionKind kind, const std::string& label) {
  const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
  const std::unique_ptr<Codec> codec = MakeCodec(kind, flat);
  const PackResult got = PackPages(flat, *codec);
  const PackResult want = SearchPackPages(rows, schema, *codec);
  EXPECT_EQ(got.pages, want.pages) << label;
  EXPECT_EQ(got.payload_bytes, want.payload_bytes) << label;
}

// Cases sized to span many pages: the narrow ones put ~1000+ rows on a
// PAGE page, so dictionaries pass 127 entries (two-byte codes) mid-page.
std::vector<DataCase> PackCases() {
  std::vector<DataCase> cases;
  for (DataCase dc : Cases()) {
    dc.rows *= 10;
    cases.push_back(dc);
  }
  cases.push_back({"narrow-dict", {2, 1, 2}, 6000, 0.05, 400, false});
  cases.push_back({"narrow-dict-sorted", {2, 1, 2}, 6000, 0.05, 400, true});
  return cases;
}

TEST_P(PageFitTest, PackPagesMatchesSearchOracle) {
  uint64_t seed = 200;
  for (const DataCase& dc : PackCases()) {
    const Schema schema = StringSchema(dc.widths);
    const std::vector<Row> rows = MakeRows(dc, ++seed);
    ExpectSamePack(rows, schema, GetParam(), Label(dc));
  }
  ExpectSamePack({}, StringSchema({4}), GetParam(), "empty");
}

TEST_P(PageFitTest, GiantRowsSpillLikeTheSearch) {
  // 40 full-width columns of random nonzero bytes: alone, every row is
  // ~10 KiB on a page (GLOBAL_DICT excepted: its pages hold only
  // pointers), so each row spills over two pages.
  const Schema schema = StringSchema(std::vector<uint32_t>(40, 255));
  Random rng(300);
  std::vector<Row> rows(7);
  for (Row& row : rows) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      std::string s(255, '\0');
      for (char& ch : s) ch = static_cast<char>(1 + rng.Next(255));
      row.push_back(Value::String(s));
    }
  }
  if (GetParam() != CompressionKind::kGlobalDict) {
    const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
    const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), flat);
    EXPECT_EQ(PackPages(flat, *codec).pages, 2 * rows.size());
  }
  ExpectSamePack(rows, schema, GetParam(), "giant");
}

// FitRows itself, at capacities from a few rows to several pages' worth,
// against the default (search) implementation it overrides.
TEST_P(PageFitTest, FitRowsMatchesDefaultSearch) {
  uint64_t seed = 400;
  for (const DataCase& dc : PackCases()) {
    const Schema schema = StringSchema(dc.widths);
    const std::vector<Row> rows = MakeRows(dc, ++seed);
    const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
    const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), flat);
    for (const uint64_t capacity : {16u, 300u, 2000u, 20000u}) {
      for (size_t begin = 0; begin < flat.num_rows();) {
        const PageFit got = codec->FitRows(flat, begin, capacity);
        const PageFit want = codec->Codec::FitRows(flat, begin, capacity);
        ASSERT_EQ(got.rows, want.rows) << Label(dc) << " cap=" << capacity;
        ASSERT_EQ(got.bytes, want.bytes) << Label(dc) << " begin=" << begin;
        begin += got.rows;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PageFitTest,
    ::testing::Values(CompressionKind::kNone, CompressionKind::kRow,
                      CompressionKind::kPage, CompressionKind::kGlobalDict,
                      CompressionKind::kRle, CompressionKind::kBitmap),
    [](const auto& info) { return KindName(info.param); });

}  // namespace
}  // namespace capd
