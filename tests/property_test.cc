// Property-based sweeps (TEST_P) over invariants that must hold for every
// codec, data distribution, and index shape — the "no matter what you feed
// it" guarantees the rest of the system builds on.
#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec_factory.h"
#include "estimator/sample_cf.h"
#include "index/index_builder.h"
#include "stats/column_stats.h"

namespace capd {
namespace {

enum class Distribution { kUniform, kZipfish, kConstant, kSequential };

const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "Uniform";
    case Distribution::kZipfish:
      return "Zipfish";
    case Distribution::kConstant:
      return "Constant";
    case Distribution::kSequential:
      return "Sequential";
  }
  return "?";
}

Table MakeTable(Distribution dist, int n, uint64_t seed) {
  Random rng(seed);
  Table t("t", Schema({{"a", ValueType::kInt64, 8},
                       {"s", ValueType::kString, 10},
                       {"d", ValueType::kDouble, 8}}));
  const char* kWords[] = {"aa", "bb", "cc", "dd", "ee", "ff"};
  for (int i = 0; i < n; ++i) {
    int64_t a = 0;
    std::string s;
    switch (dist) {
      case Distribution::kUniform:
        a = rng.Uniform(0, 1000000);
        s = kWords[rng.Next(6)];
        break;
      case Distribution::kZipfish:
        a = static_cast<int64_t>(std::pow(static_cast<double>(rng.Uniform(1, 1000)), 2.0));
        s = kWords[rng.Next(2)];
        break;
      case Distribution::kConstant:
        a = 7;
        s = "aa";
        break;
      case Distribution::kSequential:
        a = i;
        s = kWords[static_cast<size_t>(i) % 6];
        break;
    }
    t.AddRow({Value::Int64(a), Value::String(s),
              Value::Double(static_cast<double>(a) / 3.0)});
  }
  return t;
}

using CodecCase = std::tuple<CompressionKind, Distribution>;

class CodecProperty : public ::testing::TestWithParam<CodecCase> {};

// Invariant: every codec round-trips every distribution exactly.
TEST_P(CodecProperty, RoundTripAnyDistribution) {
  const auto [kind, dist] = GetParam();
  const Table t = MakeTable(dist, 300, 5);
  std::vector<Row> rows;
  t.ScanRows([&](uint64_t, const Row& r) { rows.push_back(r); });
  const FlatPage page = FlatPage::FromRows(rows, t.schema(), 0, rows.size());
  std::unique_ptr<Codec> codec = MakeCodec(kind, page);
  EXPECT_EQ(codec->DecompressPage(codec->CompressPage(page)), page);
}

// Invariant: a compressed index is never larger than the uncompressed one
// by more than the per-page/dictionary framing overhead.
TEST_P(CodecProperty, CompressedNeverMuchLarger) {
  const auto [kind, dist] = GetParam();
  if (kind == CompressionKind::kNone) GTEST_SKIP();
  const Table t = MakeTable(dist, 1500, 9);
  IndexBuilder builder(t);
  IndexDef def;
  def.object = "t";
  def.key_columns = {"a", "s"};
  def.compression = kind;
  const uint64_t compressed = builder.Build(def).fine_bytes();
  const uint64_t plain =
      builder.Build(def.WithCompression(CompressionKind::kNone)).fine_bytes();
  // Generous framing allowance: 30% + a page.
  EXPECT_LE(compressed, plain + plain / 3 + kPageSize)
      << CompressionKindName(kind) << "/" << DistributionName(dist);
}

// Invariant: constant data compresses dramatically under every method.
TEST_P(CodecProperty, ConstantDataCompressesHard) {
  const auto [kind, dist] = GetParam();
  if (kind == CompressionKind::kNone || dist != Distribution::kConstant) {
    GTEST_SKIP();
  }
  const Table t = MakeTable(dist, 2000, 11);
  IndexBuilder builder(t);
  IndexDef def;
  def.object = "t";
  def.key_columns = {"a", "s", "d"};
  def.compression = kind;
  const double cf = builder.TrueCompressionFraction(def);
  // The incompressible row locator and per-field NS headers set the floor;
  // dictionary-style methods squeeze the duplicate payloads hardest.
  EXPECT_LT(cf, 0.75) << CompressionKindName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecProperty,
    ::testing::Combine(::testing::Values(CompressionKind::kNone,
                                         CompressionKind::kRow,
                                         CompressionKind::kPage,
                                         CompressionKind::kGlobalDict,
                                         CompressionKind::kRle,
                                         CompressionKind::kBitmap),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kZipfish,
                                         Distribution::kConstant,
                                         Distribution::kSequential)),
    [](const auto& info) {
      std::string n = CompressionKindName(std::get<0>(info.param));
      n.erase(std::remove_if(n.begin(), n.end(),
                             [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); }),
              n.end());
      return n + "_" + DistributionName(std::get<1>(info.param));
    });

// Invariant: ORD-IND methods produce identical sizes for any key
// permutation of the same column set, on every distribution.
class OrdIndProperty : public ::testing::TestWithParam<Distribution> {};

TEST_P(OrdIndProperty, PermutationInvariance) {
  const Table t = MakeTable(GetParam(), 2000, 21);
  IndexBuilder builder(t);
  for (CompressionKind kind :
       {CompressionKind::kRow, CompressionKind::kGlobalDict}) {
    IndexDef abc, cab;
    abc.object = cab.object = "t";
    abc.compression = cab.compression = kind;
    abc.key_columns = {"a", "s", "d"};
    cab.key_columns = {"d", "a", "s"};
    EXPECT_EQ(builder.Build(abc).fine_bytes(), builder.Build(cab).fine_bytes())
        << CompressionKindName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrdIndProperty,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kZipfish,
                                           Distribution::kSequential),
                         [](const auto& info) {
                           return DistributionName(info.param);
                         });

// Invariant: SampleCF's estimate lands within a sane band of the truth on
// every distribution/codec combination (wide tolerance; tight accuracy is
// covered statistically by bench_fig09).
class SampleCfProperty
    : public ::testing::TestWithParam<std::tuple<CompressionKind, Distribution>> {};

TEST_P(SampleCfProperty, EstimateWithinBand) {
  const auto [kind, dist] = GetParam();
  Database db;
  db.AddTable(std::make_unique<Table>(MakeTable(dist, 4000, 33)));
  SampleManager samples(77);
  TableSampleSource source(db, &samples);
  SampleCfEstimator estimator(db, &source);
  IndexDef def;
  def.object = "t";
  def.key_columns = {"a", "s"};
  def.compression = kind;
  const SampleCfResult r = estimator.Estimate(def, 0.1);
  IndexBuilder builder(db.table("t"));
  const double truth = static_cast<double>(builder.Build(def).fine_bytes());
  EXPECT_GT(r.est_bytes, truth * 0.5)
      << CompressionKindName(kind) << "/" << DistributionName(dist);
  EXPECT_LT(r.est_bytes, truth * 1.9)
      << CompressionKindName(kind) << "/" << DistributionName(dist);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleCfProperty,
    ::testing::Combine(::testing::Values(CompressionKind::kRow,
                                         CompressionKind::kPage,
                                         CompressionKind::kRle),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kZipfish,
                                         Distribution::kSequential)),
    [](const auto& info) {
      std::string n = CompressionKindName(std::get<0>(info.param));
      n.erase(std::remove_if(n.begin(), n.end(),
                             [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); }),
              n.end());
      return n + "_" + DistributionName(std::get<1>(info.param));
    });

// Invariant: histogram CDF is monotone and normalized for arbitrary data.
class HistogramProperty : public ::testing::TestWithParam<Distribution> {};

TEST_P(HistogramProperty, MonotoneNormalizedCdf) {
  const Table t = MakeTable(GetParam(), 3000, 55);
  std::vector<double> keys;
  t.ScanRows(
      [&](uint64_t, const Row& r) { keys.push_back(r[0].NumericKey()); });
  Histogram h = Histogram::Build(keys, 32);
  double prev = 0.0;
  const double span = h.max() - h.min();
  for (int i = 0; i <= 20; ++i) {
    const double x = h.min() + span * static_cast<double>(i) / 20.0;
    const double cdf = h.SelectivityLe(x);
    EXPECT_GE(cdf, prev - 1e-9);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0 + 1e-9);
    prev = cdf;
  }
  EXPECT_NEAR(h.SelectivityLe(h.max()), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistogramProperty,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kZipfish,
                                           Distribution::kConstant,
                                           Distribution::kSequential),
                         [](const auto& info) {
                           return DistributionName(info.param);
                         });

// Invariant: index build is deterministic (same rows -> same sizes).
TEST(BuilderProperty, Deterministic) {
  for (Distribution d : {Distribution::kUniform, Distribution::kZipfish}) {
    const Table t1 = MakeTable(d, 2500, 66);
    const Table t2 = MakeTable(d, 2500, 66);
    IndexBuilder b1(t1), b2(t2);
    IndexDef def;
    def.object = "t";
    def.key_columns = {"s", "a"};
    def.compression = CompressionKind::kPage;
    EXPECT_EQ(b1.Build(def).fine_bytes(), b2.Build(def).fine_bytes());
  }
}

// Invariant: more rows never shrink an index.
TEST(BuilderProperty, MonotoneInRows) {
  IndexDef def;
  def.object = "t";
  def.key_columns = {"a"};
  def.compression = CompressionKind::kRow;
  uint64_t prev = 0;
  for (int n : {500, 1000, 2000, 4000}) {
    const Table t = MakeTable(Distribution::kUniform, n, 88);
    IndexBuilder builder(t);
    const uint64_t bytes = builder.Build(def).fine_bytes();
    EXPECT_GE(bytes, prev);
    prev = bytes;
  }
}

// Invariant: a partial index is never larger than its full counterpart.
TEST(BuilderProperty, PartialSubsetOfFull) {
  const Table t = MakeTable(Distribution::kUniform, 3000, 99);
  IndexBuilder builder(t);
  IndexDef full;
  full.object = "t";
  full.key_columns = {"a"};
  full.compression = CompressionKind::kRow;
  IndexDef partial = full;
  partial.filter = ColumnFilter{"a", FilterOp::kLt, Value::Int64(300000), {}};
  EXPECT_LE(builder.Build(partial).fine_bytes(),
            builder.Build(full).fine_bytes());
  EXPECT_LT(builder.Build(partial).tuples, builder.Build(full).tuples);
}

}  // namespace
}  // namespace capd
