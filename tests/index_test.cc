// Tests for index definitions and the physical index builder (ground-truth
// sizes the estimation framework is judged against).
#include <algorithm>
#include <cstdint>
#include <limits>
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

Table MakeTable(int n, uint64_t seed = 123) {
  Random rng(seed);
  Table t("t", Schema({{"a", ValueType::kInt64, 8},
                       {"b", ValueType::kString, 12},
                       {"c", ValueType::kInt64, 8},
                       {"d", ValueType::kDouble, 8}}));
  const char* kWords[] = {"red", "green", "blue"};
  for (int i = 0; i < n; ++i) {
    t.AddRow({Value::Int64(rng.Uniform(0, 20)),
              Value::String(kWords[rng.Next(3)]),
              Value::Int64(rng.Uniform(0, 1000000)),
              Value::Double(static_cast<double>(rng.Uniform(0, 10000)))});
  }
  return t;
}

IndexDef Idx(std::vector<std::string> keys, std::vector<std::string> includes = {},
             CompressionKind kind = CompressionKind::kNone) {
  IndexDef def;
  def.object = "t";
  def.key_columns = std::move(keys);
  def.include_columns = std::move(includes);
  def.compression = kind;
  return def;
}

TEST(IndexDefTest, StoredColumnsSecondary) {
  const Table t = MakeTable(10);
  const auto cols = Idx({"a"}, {"b"}).StoredColumns(t.schema());
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b"}));
}

TEST(IndexDefTest, StoredColumnsClusteredContainsAll) {
  const Table t = MakeTable(10);
  IndexDef def = Idx({"b"});
  def.clustered = true;
  const auto cols = def.StoredColumns(t.schema());
  EXPECT_EQ(cols.size(), 4u);
  EXPECT_EQ(cols[0], "b");  // key first
}

TEST(IndexDefTest, SignatureDistinguishesCompression) {
  const IndexDef a = Idx({"a"});
  const IndexDef b = Idx({"a"}, {}, CompressionKind::kRow);
  EXPECT_NE(a.Signature(), b.Signature());
  EXPECT_EQ(a.StructureSignature(), b.StructureSignature());
}

TEST(ColumnFilterTest, MatchOperators) {
  const Table t = MakeTable(1);
  const Row row = {Value::Int64(5), Value::String("red"), Value::Int64(0),
                   Value::Double(0)};
  ColumnFilter f{"a", FilterOp::kBetween, Value::Int64(3), Value::Int64(7)};
  EXPECT_TRUE(f.Matches(row, t.schema()));
  f = ColumnFilter{"a", FilterOp::kLt, Value::Int64(5), {}};
  EXPECT_FALSE(f.Matches(row, t.schema()));
  f = ColumnFilter{"a", FilterOp::kGe, Value::Int64(5), {}};
  EXPECT_TRUE(f.Matches(row, t.schema()));
  f = ColumnFilter{"b", FilterOp::kEq, Value::String("red"), {}};
  EXPECT_TRUE(f.Matches(row, t.schema()));
}

TEST(ColumnFilterTest, CellCheckAgreesWithRowCheck) {
  // Per column type, the cells every filter is tried on; each one also
  // serves as a bound, so every operator meets equality at its bounds.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<Value>> cells = {
      {Value::Int64(-7), Value::Int64(0), Value::Int64(3), Value::Int64(4),
       Value::Int64(INT64_MAX)},
      {Value::Date(-1), Value::Date(0), Value::Date(10957), Value::Date(10958),
       Value::Date(20000)},
      {Value::Double(-2.5), Value::Double(-0.0), Value::Double(0.0),
       Value::Double(1.5), Value::Double(kNaN)},
      {Value::String(""), Value::String("ab"), Value::String("abc"),
       Value::String("b"), Value::String("\xff")}};
  Table t("t", Schema({{"i", ValueType::kInt64, 8},
                       {"d", ValueType::kDate, 4},
                       {"x", ValueType::kDouble, 8},
                       {"s", ValueType::kString, 4}}));
  for (size_t r = 0; r < cells[0].size(); ++r) {
    t.AddRow({cells[0][r], cells[1][r], cells[2][r], cells[3][r]});
  }
  const FilterOp kOps[] = {FilterOp::kEq, FilterOp::kLt, FilterOp::kLe,
                           FilterOp::kGt, FilterOp::kGe, FilterOp::kBetween};
  int checked = 0;
  t.ScanBlocks([&](uint64_t, const ColumnBlock& block) {
    Row row;
    for (size_t c = 0; c < cells.size(); ++c) {
      for (const FilterOp op : kOps) {
        for (const Value& lo : cells[c]) {
          for (const Value& hi : cells[c]) {
            const ColumnFilter f{t.schema().column(c).name, op, lo, hi};
            for (uint64_t r = 0; r < block.num_rows(); ++r) {
              block.RowAt(r, &row);
              const bool by_row = f.Matches(row, t.schema());
              EXPECT_EQ(f.MatchesCell(block, c, r), by_row)
                  << f.ToString() << " on row " << r;
              ++checked;
            }
          }
        }
      }
    }
  });
  EXPECT_EQ(checked, 4 * 6 * 5 * 5 * 5);
}

TEST(IndexBuilderTest, MaterializedPageIsSortedByKey) {
  const Table t = MakeTable(500);
  IndexBuilder builder(t);
  const IndexDef def = Idx({"a", "c"});
  const Schema stored = def.StoredSchema(t.schema());
  const FlatPage page = builder.MaterializePage(def);
  ASSERT_EQ(page.num_rows(), 500u);
  ASSERT_EQ(page.num_columns(), 3u);  // a, c, locator
  for (size_t i = 1; i < page.num_rows(); ++i) {
    const Value a0 = DecodeField(page.field(i - 1, 0), stored.column(0));
    const Value a1 = DecodeField(page.field(i, 0), stored.column(0));
    const int c = a0.Compare(a1);
    EXPECT_LE(c, 0);
    if (c == 0) {
      EXPECT_LE(DecodeField(page.field(i - 1, 1), stored.column(1))
                    .Compare(DecodeField(page.field(i, 1), stored.column(1))),
                0);
    }
  }
}

// Rows tied on the key land where a std::sort of the whole projected rows
// puts them, so the page bytes match that sort's rendering.
TEST(IndexBuilderTest, MaterializedPageMatchesARowSort) {
  const Table t = MakeTable(700);
  IndexDef def = Idx({"b"});  // three distinct keys: long runs of ties
  def.clustered = true;
  const Schema stored = def.StoredSchema(t.schema());
  std::vector<size_t> positions;
  for (const std::string& name : def.StoredColumns(t.schema())) {
    positions.push_back(t.schema().ColumnIndex(name));
  }
  std::vector<Row> rows;
  t.ScanRows([&](uint64_t, const Row& r) {
    Row projected;
    for (size_t p : positions) projected.push_back(r[p]);
    rows.push_back(projected);
  });
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a[0].Compare(b[0]) < 0;
  });
  EXPECT_EQ(IndexBuilder(t).MaterializePage(def),
            FlatPage::FromRows(rows, stored, 0, rows.size()));
}

TEST(IndexBuilderTest, SecondaryCarriesRowLocator) {
  const Table t = MakeTable(10);
  const Schema stored = Idx({"a"}).StoredSchema(t.schema());
  EXPECT_EQ(stored.column(stored.num_columns() - 1).name, "__rowid");
}

TEST(IndexBuilderTest, ClusteredHasNoLocator) {
  const Table t = MakeTable(10);
  IndexDef def = Idx({"a"});
  def.clustered = true;
  const Schema stored = def.StoredSchema(t.schema());
  EXPECT_FALSE(stored.HasColumn("__rowid"));
  EXPECT_EQ(stored.num_columns(), 4u);
}

TEST(IndexBuilderDeathTest, PackRejectsAPageOfAnotherSchema) {
  const Table t = MakeTable(50);
  IndexBuilder builder(t);
  const FlatPage page = builder.MaterializePage(Idx({"a"}));
  // Any variant of the same structure packs from the page...
  EXPECT_EQ(builder.Pack(Idx({"a"}, {}, CompressionKind::kRow), page).tuples,
            50u);
  // ...a structure with other stored columns does not.
  EXPECT_DEATH(builder.Pack(Idx({"a", "b"}), page), "stored schema");
}

TEST(IndexBuilderTest, PartialIndexFiltersRows) {
  const Table t = MakeTable(1000);
  IndexBuilder builder(t);
  IndexDef def = Idx({"a"});
  def.filter = ColumnFilter{"a", FilterOp::kLt, Value::Int64(5), {}};
  const IndexPhysical phys = builder.Build(def);
  EXPECT_LT(phys.tuples, 500u);
  EXPECT_GT(phys.tuples, 50u);
}

TEST(IndexBuilderTest, CompressionShrinksCompressibleIndex) {
  const Table t = MakeTable(3000);
  IndexBuilder builder(t);
  // Column "a" has 21 distinct small ints and "b" three short strings: very
  // compressible under both ROW and PAGE.
  for (CompressionKind kind : {CompressionKind::kRow, CompressionKind::kPage}) {
    const double cf = builder.TrueCompressionFraction(Idx({"a", "b"}, {}, kind));
    EXPECT_LT(cf, 0.8) << CompressionKindName(kind);
    EXPECT_GT(cf, 0.05);
  }
}

TEST(IndexBuilderTest, RandomWideColumnCompressesWorse) {
  const Table t = MakeTable(3000);
  IndexBuilder builder(t);
  const double cf_narrow =
      builder.TrueCompressionFraction(Idx({"a"}, {}, CompressionKind::kRow));
  const double cf_wide =
      builder.TrueCompressionFraction(Idx({"c"}, {}, CompressionKind::kRow));
  EXPECT_LT(cf_narrow, cf_wide);  // small ints compress better than random
}

TEST(IndexBuilderTest, OrdIndSizeEqualForPermutedKeys) {
  const Table t = MakeTable(2000);
  IndexBuilder builder(t);
  const IndexPhysical ab =
      builder.Build(Idx({"a", "b"}, {}, CompressionKind::kRow));
  const IndexPhysical ba =
      builder.Build(Idx({"b", "a"}, {}, CompressionKind::kRow));
  // ORD-IND: identical column set => identical size (the ColSet axiom).
  EXPECT_EQ(ab.total_pages(), ba.total_pages());
}

TEST(IndexBuilderTest, OrdDepSizeDiffersForPermutedKeys) {
  // Make a table where order matters strongly: column x has long runs when
  // leading, fragmented when trailing.
  Random rng(9);
  Table t("t", Schema({{"x", ValueType::kString, 16}, {"y", ValueType::kInt64, 8}}));
  for (int i = 0; i < 4000; ++i) {
    t.AddRow({Value::String("group_" + std::to_string(i % 4)),
              Value::Int64(rng.Uniform(0, 1000000))});
  }
  IndexBuilder builder(t);
  IndexDef xy;
  xy.object = "t";
  xy.key_columns = {"x", "y"};
  xy.compression = CompressionKind::kRle;
  IndexDef yx = xy;
  yx.key_columns = {"y", "x"};
  const IndexPhysical phys_xy = builder.Build(xy);
  const IndexPhysical phys_yx = builder.Build(yx);
  EXPECT_NE(phys_xy.total_pages(), phys_yx.total_pages());
  // x leading -> runs of x collapse under RLE -> smaller.
  EXPECT_LT(phys_xy.total_pages(), phys_yx.total_pages());
}

TEST(IndexBuilderTest, EmptyTableStillOnePage) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  IndexBuilder builder(t);
  IndexDef def;
  def.object = "t";
  def.key_columns = {"a"};
  EXPECT_EQ(builder.Build(def).data_pages, 1u);
}

TEST(PackPagesTest, EveryPageBlobFitsCapacity) {
  // Indirect check: pack, then verify the builder's page count is at least
  // bytes/capacity (no page can hold more than capacity).
  const Table t = MakeTable(5000);
  IndexBuilder builder(t);
  const IndexDef def = Idx({"a", "b", "c"}, {}, CompressionKind::kPage);
  const FlatPage page = builder.MaterializePage(def);
  std::unique_ptr<Codec> codec = MakeCodec(def.compression, page);
  const std::string whole = codec->CompressPage(page);
  const PackResult packed = PackPages(page, *codec);
  EXPECT_GE(packed.pages, whole.size() / kPageCapacity);
  // And packing cannot be catastrophically wasteful either (pages are at
  // least half full on average for smooth data like this).
  EXPECT_LE(packed.pages, 2 * whole.size() / kPageCapacity + 2);
  EXPECT_GT(packed.payload_bytes, 0u);
  EXPECT_LE(packed.payload_bytes, packed.pages * kPageCapacity);
}

TEST(PackPagesTest, GlobalDictOverheadCounted) {
  const Table t = MakeTable(2000);
  IndexBuilder builder(t);
  const IndexPhysical phys =
      builder.Build(Idx({"c"}, {}, CompressionKind::kGlobalDict));
  EXPECT_GT(phys.overhead_bytes, 0u);  // ~2000 distinct c values stored once
  EXPECT_GT(phys.total_pages(), phys.data_pages);
}

}  // namespace
}  // namespace capd
