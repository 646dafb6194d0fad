// Tests for the zero-copy compression path: FlatPage/FlatSpan layout,
// renderers and the width-checked cell setter, the SWAR CountLeadingZeros
// kernel, the pinned MeasurePage(s) == CompressPage(s).size() contract for
// every codec across widths and null densities (including width-255 and
// all-zero fields), and the randomized compress->decompress round-trip
// property on the same matrix, comparing whole pages. Also the NS
// width>255 CHECK death tests.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"
#include "compress/null_suppression.h"
#include "storage/encoding.h"

namespace capd {
namespace {

Schema WideSchema() {
  // One compressible int, one short string, one width-255 string, one int.
  return Schema({{"a", ValueType::kInt64, 8},
                 {"s", ValueType::kString, 12},
                 {"w", ValueType::kString, 255},
                 {"b", ValueType::kInt64, 8}});
}

// Rows with a tunable fraction of "zero" fields (Int64(0) / empty string
// encode to all-0x00 fixed-width fields).
std::vector<Row> RandomRows(size_t n, double zero_density, Random* rng) {
  std::vector<Row> rows;
  rows.reserve(n);
  const char* kWords[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < n; ++i) {
    const bool zero = rng->NextDouble() < zero_density;
    std::string wide;
    if (!zero) {
      const size_t len = rng->Next(250);
      wide.assign(len, static_cast<char>('a' + rng->Next(26)));
    }
    rows.push_back(
        {zero ? Value::Int64(0) : Value::Int64(rng->Uniform(0, 50)),
         zero ? Value::String("") : Value::String(kWords[rng->Next(4)]),
         Value::String(wide),
         zero ? Value::Int64(0) : Value::Int64(rng->Uniform(0, 1 << 30))});
  }
  return rows;
}

TEST(FlatPageTest, LayoutMatchesEncodeField) {
  Random rng(11);
  const Schema schema = WideSchema();
  const std::vector<Row> rows = RandomRows(37, 0.3, &rng);
  const FlatPage page = FlatPage::FromRows(rows, schema, 0, rows.size());
  ASSERT_EQ(page.num_rows(), rows.size());
  ASSERT_EQ(page.num_columns(), schema.num_columns());
  EXPECT_EQ(page.row_width(), static_cast<size_t>(schema.RowWidth()));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      EXPECT_EQ(page.field(r, c),
                EncodeFieldToString(rows[r][c], schema.column(c)))
          << "row " << r << " col " << c;
    }
  }
}

TEST(FlatPageTest, ColumnDataIsContiguous) {
  Random rng(12);
  const Schema schema = WideSchema();
  const std::vector<Row> rows = RandomRows(20, 0.0, &rng);
  const FlatPage page = FlatPage::FromRows(rows, schema, 0, rows.size());
  for (size_t c = 0; c < page.num_columns(); ++c) {
    const char* base = page.column_data(c);
    for (size_t r = 0; r < page.num_rows(); ++r) {
      EXPECT_EQ(FieldView(base + r * page.width(c), page.width(c)),
                page.field(r, c));
    }
  }
}

TEST(FlatPageTest, SpanSlicesAddressSubranges) {
  Random rng(13);
  const Schema schema = WideSchema();
  const std::vector<Row> rows = RandomRows(50, 0.2, &rng);
  const FlatPage page = FlatPage::FromRows(rows, schema, 0, rows.size());
  const FlatSpan span = page.span(10, 35);
  ASSERT_EQ(span.num_rows(), 25u);
  for (size_t r = 0; r < span.num_rows(); ++r) {
    for (size_t c = 0; c < span.num_columns(); ++c) {
      EXPECT_EQ(span.field(r, c), page.field(10 + r, c));
    }
  }
  // Slicing matches FromRows over the same subrange.
  const FlatPage sub = FlatPage::FromRows(rows, schema, 10, 35);
  ASSERT_EQ(sub.num_rows(), span.num_rows());
  for (size_t r = 0; r < span.num_rows(); ++r) {
    for (size_t c = 0; c < span.num_columns(); ++c) {
      EXPECT_EQ(sub.field(r, c), span.field(r, c));
    }
  }
}

TEST(FlatPageTest, SetFieldFillsAZeroPage) {
  Random rng(15);
  const Schema schema = WideSchema();
  const std::vector<Row> rows = RandomRows(25, 0.5, &rng);
  const FlatPage rendered = FlatPage::FromRows(rows, schema, 0, rows.size());
  FlatPage filled(ColumnWidths(schema), rows.size());
  EXPECT_EQ(filled.field(3, 2), std::string(255, '\0'));
  // Row-major fill order, as the row-wise decoders write.
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      filled.SetField(r, c, rendered.field(r, c));
    }
  }
  EXPECT_EQ(filled, rendered);
}

TEST(FlatPageDeathTest, SetFieldRejectsWrongWidth) {
  FlatPage page({8, 4}, 2);
  page.SetField(1, 1, "abcd");
  EXPECT_EQ(page.field(1, 1), "abcd");
  EXPECT_DEATH(page.SetField(0, 1, "abc"), "wrong width");
  EXPECT_DEATH(page.SetField(0, 1, "abcde"), "wrong width");
  EXPECT_DEATH(page.SetField(0, 0, std::string(4, 'x')), "wrong width");
}

TEST(CountLeadingZerosTest, MatchesScalarReference) {
  Random rng(16);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = rng.Next(41);  // 0..40 covers SWAR body + tail
    std::string s(len, '\0');
    // First nonzero byte at a random position (possibly none).
    const size_t pos = rng.Next(static_cast<uint32_t>(len) + 2);
    for (size_t i = pos; i < len; ++i) {
      s[i] = static_cast<char>(rng.Next(256));
    }
    if (pos < len) s[pos] = static_cast<char>(1 + rng.Next(255));
    size_t expected = 0;
    while (expected < s.size() && s[expected] == '\0') ++expected;
    EXPECT_EQ(CountLeadingZeros(s), expected)
        << "len=" << len << " pos=" << pos;
  }
}

TEST(CountLeadingZerosTest, WordBoundaries) {
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 255u}) {
    const std::string zeros(len, '\0');
    EXPECT_EQ(CountLeadingZeros(zeros), len);
    for (size_t pos = 0; pos < len; ++pos) {
      std::string s = zeros;
      s[pos] = 'x';
      EXPECT_EQ(CountLeadingZeros(s), pos) << "len=" << len;
    }
  }
}

TEST(NullSuppressionDeathTest, FieldWiderThan255Aborts) {
  const std::string too_wide(256, 'x');
  std::string out;
  EXPECT_DEATH(NsCompressField(too_wide, &out), "CHECK failed");
  EXPECT_DEATH(NsFieldSize(too_wide), "CHECK failed");
}

// The pinned contract: MeasurePage(s) == CompressPage(s).size() for every
// codec, span, width mix, and null density.
class MeasureEqualsCompress
    : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(MeasureEqualsCompress, AcrossSpansAndNullDensities) {
  Random rng(17);
  const Schema schema = WideSchema();
  for (const double density : {0.0, 0.4, 1.0}) {
    const std::vector<Row> rows = RandomRows(60, density, &rng);
    const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
    const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), flat);
    const size_t n = flat.num_rows();
    const size_t spans[][2] = {{0, n}, {0, 1}, {n / 3, 2 * n / 3}, {n, n}};
    for (const auto& range : spans) {
      const FlatSpan span = flat.span(range[0], range[1]);
      const std::string blob = codec->CompressPage(span);
      EXPECT_EQ(codec->MeasurePage(span), blob.size())
          << CompressionKindName(GetParam()) << " density=" << density
          << " span=[" << range[0] << "," << range[1] << ")";
    }
  }
}

TEST_P(MeasureEqualsCompress, RoundTripIdentity) {
  Random rng(18);
  const Schema schema = WideSchema();
  for (const double density : {0.0, 0.4, 1.0}) {
    for (int trial = 0; trial < 5; ++trial) {
      const std::vector<Row> rows =
          RandomRows(1 + rng.Next(80), density, &rng);
      const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
      const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), flat);
      EXPECT_EQ(codec->DecompressPage(codec->CompressPage(flat)), flat)
          << CompressionKindName(GetParam()) << " density=" << density;
    }
  }
}

TEST_P(MeasureEqualsCompress, AllZeroFields) {
  const Schema schema = WideSchema();
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({Value::Int64(0), Value::String(""), Value::String(""),
                    Value::Int64(0)});
  }
  const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
  const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), flat);
  const std::string blob = codec->CompressPage(flat);
  EXPECT_EQ(codec->MeasurePage(flat), blob.size());
  EXPECT_EQ(codec->DecompressPage(blob), flat);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MeasureEqualsCompress,
    ::testing::Values(CompressionKind::kNone, CompressionKind::kRow,
                      CompressionKind::kPage, CompressionKind::kGlobalDict,
                      CompressionKind::kRle, CompressionKind::kBitmap),
    [](const auto& info) {
      std::string n = CompressionKindName(info.param);
      n.erase(std::remove_if(n.begin(), n.end(),
                             [](char c) {
                               return !std::isalnum(
                                   static_cast<unsigned char>(c));
                             }),
              n.end());
      return n;
    });

}  // namespace
}  // namespace capd
