// Unit + property tests for the compression codecs, including the
// ORD-IND/ORD-DEP behaviours the paper's deductions rely on.
#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"
#include "compress/global_dict_codec.h"
#include "compress/null_suppression.h"
#include "compress/page_codec.h"
#include "compress/rle_codec.h"
#include "compress/varint.h"

namespace capd {
namespace {

Schema TwoColSchema() {
  return Schema({{"a", ValueType::kInt64, 8}, {"b", ValueType::kString, 12}});
}

std::vector<Row> MakeRows(int n, int distinct_a, Random* rng) {
  std::vector<Row> rows;
  const char* kWords[] = {"alpha", "beta", "gamma", "delta"};
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(rng->Uniform(0, distinct_a - 1)),
                    Value::String(kWords[rng->Next(4)])});
  }
  return rows;
}

FlatPage Render(const std::vector<Row>& rows, const Schema& schema) {
  return FlatPage::FromRows(rows, schema, 0, rows.size());
}

TEST(VarintTest, RoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40, ~0ull}) {
    std::string buf;
    PutVarint(v, &buf);
    EXPECT_EQ(buf.size(), VarintSize(v));
    size_t offset = 0;
    EXPECT_EQ(GetVarint(buf, &offset), v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(NullSuppressionTest, FieldRoundTrip) {
  for (const std::string& field :
       {std::string("\0\0\0abc", 6), std::string("abc"), std::string(4, '\0'),
        std::string("\0x\0y", 4)}) {
    std::string compressed;
    NsCompressField(field, &compressed);
    EXPECT_EQ(compressed.size(), NsFieldSize(field));
    std::string back;
    size_t offset = 0;
    NsDecompressField(compressed, &offset, static_cast<uint32_t>(field.size()), &back);
    EXPECT_EQ(back, field);
  }
}

TEST(NullSuppressionTest, AllZerosCompressesToHeader) {
  const std::string field(8, '\0');
  EXPECT_EQ(NsFieldSize(field), 1u);
}

TEST(NullSuppressionTest, NoZerosCostsOneByteHeader) {
  const std::string field = "abcdefgh";
  EXPECT_EQ(NsFieldSize(field), 9u);
}

// Property suite: every codec round-trips random pages.
class CodecRoundTrip : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(CodecRoundTrip, RandomPages) {
  Random rng(31);
  const Schema schema = TwoColSchema();
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Row> rows = MakeRows(1 + static_cast<int>(rng.Next(200)), 5, &rng);
    const FlatPage page = Render(rows, schema);
    std::unique_ptr<Codec> codec = MakeCodec(GetParam(), page);
    const std::string blob = codec->CompressPage(page);
    EXPECT_EQ(codec->DecompressPage(blob), page)
        << CompressionKindName(GetParam());
  }
}

TEST_P(CodecRoundTrip, MeasureMatchesCompressedSize) {
  Random rng(41);
  const Schema schema = TwoColSchema();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Row> rows =
        MakeRows(1 + static_cast<int>(rng.Next(150)), 5, &rng);
    const FlatPage page = Render(rows, schema);
    std::unique_ptr<Codec> codec = MakeCodec(GetParam(), page);
    EXPECT_EQ(codec->MeasurePage(page), codec->CompressPage(page.span()).size())
        << CompressionKindName(GetParam());
  }
}

TEST_P(CodecRoundTrip, EmptyPage) {
  const FlatPage page = Render({}, TwoColSchema());
  std::unique_ptr<Codec> codec = MakeCodec(GetParam(), page);
  const FlatPage back = codec->DecompressPage(codec->CompressPage(page));
  EXPECT_EQ(back.num_rows(), 0u);
  EXPECT_EQ(back, page);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CodecRoundTrip,
    ::testing::Values(CompressionKind::kNone, CompressionKind::kRow,
                      CompressionKind::kPage, CompressionKind::kGlobalDict,
                      CompressionKind::kRle, CompressionKind::kBitmap),
    [](const auto& info) {
      std::string n = CompressionKindName(info.param);
      n.erase(std::remove_if(n.begin(), n.end(),
                             [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); }),
              n.end());
      return n;
    });

TEST(RowCodecTest, SmallIntsCompress) {
  const Schema schema({{"a", ValueType::kInt64, 8}});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({Value::Int64(i % 3)});
  const FlatPage page = Render(rows, schema);
  NoneCodec none(ColumnWidths(schema));
  RowCodec row(ColumnWidths(schema));
  EXPECT_LT(row.CompressPage(page).size(), none.CompressPage(page).size() / 2);
}

TEST(RowCodecTest, OrderIndependentSize) {
  Random rng(77);
  const Schema schema = TwoColSchema();
  std::vector<Row> rows = MakeRows(150, 4, &rng);
  RowCodec codec(ColumnWidths(schema));
  const size_t size1 = codec.CompressPage(Render(rows, schema)).size();
  std::shuffle(rows.begin(), rows.end(), rng.engine());
  const size_t size2 = codec.CompressPage(Render(rows, schema)).size();
  EXPECT_EQ(size1, size2);  // NS size is a function of the multiset only
}

TEST(PageCodecTest, DuplicatesGoToDictionary) {
  const Schema schema({{"s", ValueType::kString, 12}});
  std::vector<Row> uniform, distinct;
  for (int i = 0; i < 100; ++i) {
    uniform.push_back({Value::String("same-value")});
    distinct.push_back({Value::String("val" + std::to_string(i))});
  }
  PageCodec codec(ColumnWidths(schema));
  const size_t uniform_size =
      codec.CompressPage(Render(uniform, schema)).size();
  const size_t distinct_size =
      codec.CompressPage(Render(distinct, schema)).size();
  EXPECT_LT(uniform_size, distinct_size / 3);
}

TEST(PageCodecTest, OrderDependentSize) {
  // Sorted order clusters duplicates per page only when pages are small;
  // within one page the dictionary sees the same multiset, so exercise the
  // anchor instead: a sorted prefix of similar strings lengthens the common
  // prefix within the page.
  const Schema schema({{"s", ValueType::kString, 12}});
  std::vector<Row> close, far;
  for (int i = 0; i < 64; ++i) {
    close.push_back({Value::String("prefix_" + std::to_string(i % 4))});
    far.push_back({Value::String(std::string(1, static_cast<char>('a' + i % 26)) +
                                 std::to_string(i))});
  }
  PageCodec codec(ColumnWidths(schema));
  const size_t close_size = codec.CompressPage(Render(close, schema)).size();
  const size_t far_size = codec.CompressPage(Render(far, schema)).size();
  EXPECT_LT(close_size, far_size);
}

TEST(RleCodecTest, SortedBeatsShuffled) {
  Random rng(5);
  const Schema schema({{"a", ValueType::kInt64, 8}});
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({Value::Int64(i / 50)});
  RleCodec codec(ColumnWidths(schema));
  const size_t sorted_size = codec.CompressPage(Render(rows, schema)).size();
  std::shuffle(rows.begin(), rows.end(), rng.engine());
  const size_t shuffled_size = codec.CompressPage(Render(rows, schema)).size();
  EXPECT_LT(sorted_size, shuffled_size / 4);
}

TEST(GlobalDictTest, PointerWidthGrowsWithDistincts) {
  const Schema schema({{"a", ValueType::kInt64, 8}});
  std::vector<Row> few, many;
  for (int i = 0; i < 600; ++i) {
    few.push_back({Value::Int64(i % 10)});
    many.push_back({Value::Int64(i)});
  }
  auto few_codec = GlobalDictCodec::Build(Render(few, schema));
  auto many_codec = GlobalDictCodec::Build(Render(many, schema));
  EXPECT_EQ(few_codec->PointerWidth(0), 1u);
  EXPECT_EQ(many_codec->PointerWidth(0), 2u);
  EXPECT_EQ(few_codec->DictionarySize(0), 10u);
  EXPECT_EQ(many_codec->DictionarySize(0), 600u);
}

TEST(GlobalDictTest, DictionaryChargedAsOverhead) {
  const Schema schema({{"a", ValueType::kInt64, 8}});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({Value::Int64(i % 10)});
  auto codec = GlobalDictCodec::Build(Render(rows, schema));
  EXPECT_GT(codec->IndexOverheadBytes(), 0u);
}

TEST(CompressionKindTest, OrderDependenceTaxonomy) {
  EXPECT_FALSE(IsOrderDependent(CompressionKind::kNone));
  EXPECT_FALSE(IsOrderDependent(CompressionKind::kRow));
  EXPECT_FALSE(IsOrderDependent(CompressionKind::kGlobalDict));
  EXPECT_TRUE(IsOrderDependent(CompressionKind::kPage));
  EXPECT_TRUE(IsOrderDependent(CompressionKind::kRle));
  EXPECT_TRUE(IsOrderDependent(CompressionKind::kBitmap));
}

TEST(CompressionKindTest, AllCompressedKindsExcludesNone) {
  for (CompressionKind k : AllCompressedKinds()) {
    EXPECT_NE(k, CompressionKind::kNone);
  }
  EXPECT_EQ(AllCompressedKinds().size(), 5u);
}

}  // namespace
}  // namespace capd
