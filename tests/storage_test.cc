// Unit + property tests for src/storage: values, schemas, field encoding.
#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/encoding.h"
#include "storage/table.h"

namespace capd {
namespace {

TEST(ValueTest, CompareIntegers) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_EQ(Value::Int64(5).Compare(Value::Int64(5)), 0);
  EXPECT_GT(Value::Int64(-1).Compare(Value::Int64(-2)), 0);
}

TEST(ValueTest, CompareStringsLexicographic) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_LT(Value::String("ab").Compare(Value::String("abc")), 0);
}

TEST(ValueTest, NumericKeyOrderPreservingForStrings) {
  EXPECT_LT(Value::String("apple").NumericKey(), Value::String("banana").NumericKey());
}

TEST(ValueTest, DateBehavesAsInteger) {
  EXPECT_LT(Value::Date(100).Compare(Value::Date(200)), 0);
  EXPECT_EQ(Value::Date(100).AsInt64(), 100);
}

TEST(SchemaTest, RowWidthSumsColumnWidths) {
  Schema s({{"a", ValueType::kInt64, 8}, {"b", ValueType::kString, 20}});
  EXPECT_EQ(s.RowWidth(), 28u);
}

TEST(SchemaTest, ColumnIndexFindsByName) {
  Schema s({{"a", ValueType::kInt64, 8}, {"b", ValueType::kString, 20}});
  EXPECT_EQ(s.ColumnIndex("b"), 1u);
  EXPECT_TRUE(s.HasColumn("a"));
  EXPECT_FALSE(s.HasColumn("c"));
}

TEST(EncodingTest, FieldWidthIsExact) {
  const Column c{"s", ValueType::kString, 12};
  EXPECT_EQ(EncodeFieldToString(Value::String("abc"), c).size(), 12u);
  const Column i{"i", ValueType::kInt64, 8};
  EXPECT_EQ(EncodeFieldToString(Value::Int64(123456), i).size(), 8u);
}

TEST(EncodingTest, SmallIntegersHaveLeadingZeros) {
  const Column c{"i", ValueType::kInt64, 8};
  const std::string enc = EncodeFieldToString(Value::Int64(3), c);
  // zigzag(3)=6 -> seven leading zero bytes.
  for (int i = 0; i < 7; ++i) EXPECT_EQ(enc[i], '\0');
}

TEST(EncodingTest, StringsLeftPadded) {
  const Column c{"s", ValueType::kString, 8};
  const std::string enc = EncodeFieldToString(Value::String("abc"), c);
  EXPECT_EQ(enc.substr(0, 5), std::string(5, '\0'));
  EXPECT_EQ(enc.substr(5), "abc");
}

TEST(EncodingTest, OverlongStringTruncated) {
  const Column c{"s", ValueType::kString, 4};
  const std::string enc = EncodeFieldToString(Value::String("abcdefgh"), c);
  EXPECT_EQ(enc, "abcd");
}

// Property: decode(encode(v)) == v for every type across random values.
class EncodingRoundTrip : public ::testing::TestWithParam<ValueType> {};

TEST_P(EncodingRoundTrip, RandomValues) {
  Random rng(99);
  const ValueType type = GetParam();
  for (int i = 0; i < 500; ++i) {
    Value v;
    Column col{"c", type, 8};
    switch (type) {
      case ValueType::kInt64:
        v = Value::Int64(rng.Uniform(-1000000000, 1000000000));
        break;
      case ValueType::kDate:
        v = Value::Date(rng.Uniform(0, 30000));
        break;
      case ValueType::kDouble:
        v = Value::Double(static_cast<double>(rng.Uniform(-1000000, 1000000)) / 7.0);
        break;
      case ValueType::kString: {
        col.width = 16;
        std::string s;
        const int len = static_cast<int>(rng.Next(12)) + 1;
        for (int k = 0; k < len; ++k) {
          s.push_back(static_cast<char>('a' + rng.Next(26)));
        }
        v = Value::String(s);
        break;
      }
    }
    const std::string enc = EncodeFieldToString(v, col);
    const Value back = DecodeField(enc, col);
    EXPECT_EQ(back.Compare(v), 0) << v.ToString() << " vs " << back.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, EncodingRoundTrip,
                         ::testing::Values(ValueType::kInt64, ValueType::kDate,
                                           ValueType::kDouble,
                                           ValueType::kString));

// Property: byte-wise order of encodings matches value order (required by
// the index builder's sort and the prefix codec).
class EncodingOrder : public ::testing::TestWithParam<ValueType> {};

TEST_P(EncodingOrder, OrderPreserved) {
  Random rng(7);
  const ValueType type = GetParam();
  Column col{"c", type, type == ValueType::kString ? 10u : 8u};
  for (int i = 0; i < 300; ++i) {
    Value a, b;
    switch (type) {
      case ValueType::kInt64:
        a = Value::Int64(rng.Uniform(0, 100000));  // zigzag preserves order
        b = Value::Int64(rng.Uniform(0, 100000));  // for same-sign values
        break;
      case ValueType::kDate:
        a = Value::Date(rng.Uniform(0, 30000));
        b = Value::Date(rng.Uniform(0, 30000));
        break;
      case ValueType::kDouble:
        a = Value::Double(static_cast<double>(rng.Uniform(-10000, 10000)));
        b = Value::Double(static_cast<double>(rng.Uniform(-10000, 10000)));
        break;
      case ValueType::kString: {
        // Fixed length: encoded order matches value order only for
        // equal-length strings (see encoding.h).
        auto mk = [&rng]() {
          std::string s;
          for (int k = 0; k < 5; ++k) {
            s.push_back(static_cast<char>('a' + rng.Next(4)));
          }
          return s;
        };
        a = Value::String(mk());
        b = Value::String(mk());
        break;
      }
    }
    const std::string ea = EncodeFieldToString(a, col);
    const std::string eb = EncodeFieldToString(b, col);
    const int vc = a.Compare(b);
    const int ec = ea < eb ? -1 : (ea > eb ? 1 : 0);
    EXPECT_EQ(vc < 0, ec < 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(vc == 0, ec == 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, EncodingOrder,
                         ::testing::Values(ValueType::kInt64, ValueType::kDate,
                                           ValueType::kDouble,
                                           ValueType::kString));

TEST(TableTest, HeapPagesMatchesRowMath) {
  Schema s({{"a", ValueType::kInt64, 8}});  // 8+2 bytes per row
  Table t("t", s);
  const uint64_t rows_per_page = kPageCapacity / 10;
  for (uint64_t i = 0; i < rows_per_page + 1; ++i) {
    t.AddRow({Value::Int64(static_cast<int64_t>(i))});
  }
  EXPECT_EQ(t.HeapPages(), 2u);
}

TEST(TableTest, EmptyTableZeroPages) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  EXPECT_EQ(t.HeapPages(), 0u);
  EXPECT_EQ(t.num_rows(), 0u);
}

}  // namespace
}  // namespace capd
