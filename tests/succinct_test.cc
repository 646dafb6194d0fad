// Tests for the succinct index family: BitVector rank/select against a
// scalar reference (randomized + word-boundary sizes), WAH round-trip
// properties across bit densities and run shapes, the BitmapCodec
// MeasurePage == CompressPage contract and distinct-cap/width death tests,
// the kSortOrder deduction (sort-order-derived bitmap sizes bit-for-bit
// equal to fresh sampling, serial == pooled), and the advisor actually
// choosing a BITMAP structure over the DTAcBoth design under a byte budget.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "compress/codec.h"
#include "compress/varint.h"
#include "estimator/size_estimator.h"
#include "succinct/bit_vector.h"
#include "succinct/bitmap_codec.h"
#include "succinct/wah_bitmap.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

// ---------------------------------------------------------------------------
// BitVector rank/select vs. a scalar reference.
// ---------------------------------------------------------------------------

std::vector<bool> RandomBits(size_t n, double density, Random* rng) {
  std::vector<bool> bits(n);
  for (size_t i = 0; i < n; ++i) bits[i] = rng->NextDouble() < density;
  return bits;
}

void CheckRankSelect(const std::vector<bool>& bits) {
  BitVector bv;
  for (bool b : bits) bv.AppendBit(b);
  bv.Finish();
  ASSERT_EQ(bv.size(), bits.size());
  size_t ones = 0;
  for (size_t i = 0; i <= bits.size(); ++i) {
    ASSERT_EQ(bv.Rank1(i), ones) << "rank at " << i << " of " << bits.size();
    if (i < bits.size()) {
      ASSERT_EQ(bv.Get(i), bits[i]);
      if (bits[i]) {
        ASSERT_EQ(bv.Select1(ones), i)
            << "select " << ones << " of " << bits.size();
        ++ones;
      }
    }
  }
  ASSERT_EQ(bv.num_ones(), ones);
}

TEST(BitVectorTest, RankSelectWordBoundaries) {
  // Sizes straddling word (64) and superblock (512) boundaries.
  Random rng(41);
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 511u, 512u, 513u,
                   1024u, 1500u}) {
    for (double density : {0.0, 0.03, 0.5, 1.0}) {
      CheckRankSelect(RandomBits(n, density, &rng));
    }
  }
}

TEST(BitVectorTest, RankSelectRandomized) {
  Random rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.Next(3000);
    CheckRankSelect(RandomBits(n, rng.NextDouble(), &rng));
  }
}

TEST(BitVectorTest, AppendRunMatchesAppendBit) {
  Random rng(43);
  BitVector by_run;
  std::vector<bool> bits;
  for (int r = 0; r < 40; ++r) {
    const bool bit = rng.Next(2) == 1;
    const uint64_t len = 1 + rng.Next(200);
    by_run.AppendRun(bit, len);
    for (uint64_t i = 0; i < len; ++i) bits.push_back(bit);
  }
  by_run.Finish();
  ASSERT_EQ(by_run.size(), bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(by_run.Get(i), bits[i]) << i;
  }
}

TEST(BitVectorTest, DirectoryOverheadIsSmall) {
  BitVector bv;
  bv.AppendRun(true, 1 << 16);
  bv.Finish();
  // Two-level directory: ~8B/512bits + 2B/64bits = o(n) but bounded; the
  // payload is 8 KiB here, the directory must stay well under it.
  EXPECT_LT(bv.DirectoryBytes(), (1 << 16) / 8 / 2);
}

// ---------------------------------------------------------------------------
// WAH round-trip + canonical-size properties.
// ---------------------------------------------------------------------------

std::vector<bool> DecodeWah(const WahBitmap& bm) {
  std::vector<bool> out;
  bm.ForEachRun([&out](bool bit, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) out.push_back(bit);
  });
  return out;
}

TEST(WahBitmapTest, RoundTripAcrossDensities) {
  Random rng(44);
  for (double density : {0.0, 0.4, 1.0}) {
    for (size_t n : {0u, 1u, 30u, 31u, 32u, 61u, 62u, 63u, 1000u}) {
      const std::vector<bool> bits = RandomBits(n, density, &rng);
      WahBitmap bm;
      for (bool b : bits) bm.AppendBit(b);
      bm.Finish();
      EXPECT_EQ(bm.logical_bits(), n);
      EXPECT_EQ(DecodeWah(bm), bits) << "n=" << n << " density=" << density;
    }
  }
}

TEST(WahBitmapTest, AllZeroAndAllOneRunsCollapse) {
  for (bool bit : {false, true}) {
    WahBitmap bm;
    bm.AppendRun(bit, 1000000);
    bm.Finish();
    // 1e6 bits = 32258 complete groups + a 22-bit tail: one fill word plus
    // one literal.
    EXPECT_EQ(bm.words().size(), 2u);
    const std::vector<bool> bits = DecodeWah(bm);
    ASSERT_EQ(bits.size(), 1000000u);
    EXPECT_EQ(bits.front(), bit);
    EXPECT_EQ(bits.back(), bit);
  }
}

TEST(WahBitmapTest, SortedBitmapCollapsesUnsortedDoesNot) {
  // The sort-order effect in miniature: the same 1-bits, clustered vs
  // scattered. Clustered = 0-fill, 1-fill, 0-fill (a few words); scattered
  // = literals throughout.
  constexpr size_t kN = 31 * 400;
  WahBitmap sorted;
  sorted.AppendRun(false, kN / 2);
  sorted.AppendRun(true, kN / 4);
  sorted.AppendRun(false, kN - kN / 2 - kN / 4);
  sorted.Finish();
  EXPECT_LE(sorted.words().size(), 4u);

  WahBitmap scattered;
  for (size_t i = 0; i < kN; ++i) scattered.AppendBit(i % 4 == 0);
  scattered.Finish();
  EXPECT_EQ(scattered.words().size(), 400u);  // every group is a literal
}

TEST(WahBitmapTest, SizeTwinMatchesEncoder) {
  Random rng(45);
  for (int trial = 0; trial < 30; ++trial) {
    WahBitmap bm;
    WahSize size;
    const int runs = 1 + rng.Next(60);
    for (int r = 0; r < runs; ++r) {
      const bool bit = rng.Next(2) == 1;
      const uint64_t len = 1 + rng.Next(500);
      bm.AppendRun(bit, len);
      size.AppendRun(bit, len);
    }
    bm.Finish();
    EXPECT_EQ(size.FinishWordCount(), bm.words().size());
  }
}

TEST(WahBitmapTest, FromWordsRebuildsExactly) {
  Random rng(46);
  const std::vector<bool> bits = RandomBits(5000, 0.1, &rng);
  WahBitmap bm;
  for (bool b : bits) bm.AppendBit(b);
  bm.Finish();
  const WahBitmap back = WahBitmap::FromWords(bm.words(), bm.logical_bits());
  EXPECT_EQ(DecodeWah(back), bits);
  // And the BitVector expansion agrees bit-for-bit.
  const BitVector bv = back.ToBitVector();
  ASSERT_EQ(bv.size(), bits.size());
  for (size_t i = 0; i < bits.size(); ++i) ASSERT_EQ(bv.Get(i), bits[i]);
}

TEST(WahBitmapTest, FillLongerThanMaxGroupsSplitsIntoWords) {
  // A run longer than one fill word can carry splits into several fills
  // rather than overflowing the 30-bit group counter.
  WahBitmap bm;
  const uint64_t groups = uint64_t{wah::kMaxFillGroups} + 5;
  bm.AppendRun(true, groups * wah::kPayloadBits);
  bm.Finish();
  ASSERT_EQ(bm.words().size(), 2u);
  EXPECT_EQ(bm.words()[0],
            wah::kFillFlag | wah::kFillBit | wah::kMaxFillGroups);
  EXPECT_EQ(bm.words()[1], wah::kFillFlag | wah::kFillBit | 5u);
  uint64_t total = 0;
  bm.ForEachRun([&total](bool bit, uint64_t count) {
    EXPECT_TRUE(bit);
    total += count;
  });
  EXPECT_EQ(total, groups * wah::kPayloadBits);
}

// ---------------------------------------------------------------------------
// BitmapCodec: contract, bitmap-vs-NS mode decision, limits.
// ---------------------------------------------------------------------------

Schema LowDistinctSchema() {
  return Schema({{"flag", ValueType::kString, 10},
                 {"val", ValueType::kInt64, 8}});
}

std::vector<Row> LowDistinctRows(size_t n, bool sorted, Random* rng) {
  const char* kFlags[] = {"AIR", "RAIL", "SHIP", "TRUCK"};
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t pick = sorted ? (i * 4) / n : rng->Next(4);
    rows.push_back({Value::String(kFlags[pick]),
                    Value::Int64(rng->Uniform(0, 1 << 20))});
  }
  return rows;
}

TEST(BitmapCodecTest, MeasureEqualsCompressOnLowDistinct) {
  Random rng(47);
  for (bool sorted : {false, true}) {
    const Schema schema = LowDistinctSchema();
    const std::vector<Row> rows = LowDistinctRows(200, sorted, &rng);
    const BitmapCodec codec(ColumnWidths(schema));
    const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
    const size_t n = flat.num_rows();
    const size_t spans[][2] = {{0, n}, {0, 1}, {n / 3, 2 * n / 3}, {n, n}};
    for (const auto& range : spans) {
      const FlatSpan span = flat.span(range[0], range[1]);
      EXPECT_EQ(codec.MeasurePage(span), codec.CompressPage(span).size())
          << "sorted=" << sorted << " span=[" << range[0] << "," << range[1]
          << ")";
    }
  }
}

TEST(BitmapCodecTest, SortedKeyShrinksPage) {
  // Same value multiset, different row order: the sorted page's per-value
  // bitmaps are fills, the shuffled page's are literals. An index is always
  // sorted by its keys, so the sorted figure is what SampleCF sees.
  Random rng(48);
  const Schema schema = LowDistinctSchema();
  std::vector<Row> rows = LowDistinctRows(1000, true, &rng);
  const BitmapCodec codec(ColumnWidths(schema));
  const FlatPage sorted = FlatPage::FromRows(rows, schema, 0, rows.size());
  // Deterministic shuffle.
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.Next(static_cast<uint32_t>(i + 1))]);
  }
  const FlatPage shuffled = FlatPage::FromRows(rows, schema, 0, rows.size());
  EXPECT_LT(codec.MeasurePage(sorted), codec.MeasurePage(shuffled));
  // And sorted BITMAP beats the pure NS fallback (which is order-blind).
  const RowCodec ns(ColumnWidths(schema));
  EXPECT_LT(codec.MeasurePage(sorted), ns.MeasurePage(sorted.span()));
}

TEST(BitmapCodecTest, HighDistinctFallsBackToNs) {
  // Distinct count above the cap: the blob must match the NS payload plus
  // the mode bytes, and still round-trip.
  Random rng(49);
  const Schema schema = LowDistinctSchema();
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({Value::String("v" + std::to_string(i)),  // 300 distinct
                    Value::Int64(rng.Uniform(0, 1 << 20))});
  }
  const BitmapCodec codec(ColumnWidths(schema));
  const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
  const std::string blob = codec.CompressPage(flat);
  EXPECT_EQ(codec.MeasurePage(flat), blob.size());
  EXPECT_EQ(codec.DecompressPage(blob), flat);
}

TEST(BitmapCodecDeathTest, FieldWiderThan255Aborts) {
  EXPECT_DEATH(BitmapCodec({8, 256}), "CHECK failed");
}

TEST(BitmapCodecDeathTest, DecompressRejectsDistinctAboveCap) {
  // Handcraft a blob claiming d = cap + 1 for a 1-column page.
  std::string blob;
  PutVarint(4, &blob);                     // n_rows
  blob.push_back(static_cast<char>(1));    // mode: bitmap
  PutVarint(BitmapCodec::kMaxDistinctPerColumn + 1, &blob);
  const BitmapCodec codec({8});
  EXPECT_DEATH(codec.DecompressPage(blob), "CHECK failed");
}

// ---------------------------------------------------------------------------
// kSortOrder deduction: derived sizes == fresh sampling, bit for bit.
// ---------------------------------------------------------------------------

class SortOrderDeductionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 6000;
    tpch::Build(&db_, opt);
    samples_ = std::make_unique<SampleManager>(1234);
    source_ = std::make_unique<TableSampleSource>(db_, samples_.get());
  }

  IndexDef Idx(std::vector<std::string> keys, CompressionKind kind) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = std::move(keys);
    def.compression = kind;
    return def;
  }

  // Three sort orders of one column set: exactly one should sample, the
  // other two should ride kSortOrder deductions.
  std::vector<IndexDef> SortOrderTargets(CompressionKind kind) {
    return {Idx({"l_returnflag", "l_shipmode", "l_shipdate"}, kind),
            Idx({"l_shipmode", "l_shipdate", "l_returnflag"}, kind),
            Idx({"l_shipdate", "l_returnflag", "l_shipmode"}, kind)};
  }

  Database db_;
  std::unique_ptr<SampleManager> samples_;
  std::unique_ptr<TableSampleSource> source_;
};

TEST_F(SortOrderDeductionTest, DerivedSizesMatchFreshSamplingBitForBit) {
  constexpr double kF = 0.05;
  for (CompressionKind kind :
       {CompressionKind::kBitmap, CompressionKind::kRle}) {
    EstimationGraph graph(db_, source_.get(), ErrorModel());
    graph.set_enable_sort_order(true);
    graph.AddTargets(SortOrderTargets(kind));
    graph.Greedy(kF, /*e=*/0.25, /*q=*/0.9);
    EXPECT_EQ(graph.NumSampled(), 1u) << CompressionKindName(kind);
    EXPECT_EQ(graph.NumSortOrderDeduced(), 2u) << CompressionKindName(kind);

    const auto estimates = graph.Execute(kF);
    ASSERT_EQ(estimates.size(), 3u);

    // A fresh, independent estimator stack (same seed => same samples)
    // must produce every estimate bit-for-bit, deduced or sampled.
    SampleManager fresh_samples(1234);
    TableSampleSource fresh_source(db_, &fresh_samples);
    SampleCfEstimator fresh(db_, &fresh_source);
    for (const IndexDef& def : SortOrderTargets(kind)) {
      const SampleCfResult& got = estimates.at(def.Signature());
      const SampleCfResult want = fresh.Estimate(def, kF);
      EXPECT_EQ(got.est_bytes, want.est_bytes) << def.ToString();
      EXPECT_EQ(got.cf, want.cf) << def.ToString();
      EXPECT_EQ(got.est_tuples, want.est_tuples) << def.ToString();
      EXPECT_EQ(got.est_uncompressed_bytes, want.est_uncompressed_bytes);
    }
  }
}

TEST_F(SortOrderDeductionTest, SortOrderDeductionCutsSamplingCost) {
  constexpr double kF = 0.05;
  EstimationGraph with(db_, source_.get(), ErrorModel());
  with.set_enable_sort_order(true);
  with.AddTargets(SortOrderTargets(CompressionKind::kBitmap));
  const double cost_with = with.Greedy(kF, 0.25, 0.9);

  EstimationGraph without(db_, source_.get(), ErrorModel());
  without.AddTargets(SortOrderTargets(CompressionKind::kBitmap));
  const double cost_without = without.Greedy(kF, 0.25, 0.9);

  // One sampled leaf instead of three: cost collapses to about a third.
  EXPECT_LT(cost_with, 0.5 * cost_without);
}

TEST_F(SortOrderDeductionTest, SerialAndPooledExecuteIdentical) {
  constexpr double kF = 0.05;
  auto run = [&](ThreadPool* pool) {
    // Fresh sample stack per run: true independence between executions.
    SampleManager samples(1234);
    TableSampleSource source(db_, &samples);
    EstimationGraph graph(db_, &source, ErrorModel());
    graph.set_enable_sort_order(true);
    graph.AddTargets(SortOrderTargets(CompressionKind::kBitmap));
    graph.Greedy(kF, 0.25, 0.9, pool);
    return graph.Execute(kF, pool);
  };
  const auto serial = run(nullptr);
  ThreadPool pool(4);
  const auto pooled = run(&pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (const auto& [sig, r] : serial) {
    const SampleCfResult& p = pooled.at(sig);
    EXPECT_EQ(r.est_bytes, p.est_bytes) << sig;
    EXPECT_EQ(r.cf, p.cf) << sig;
    EXPECT_EQ(r.cost_pages, p.cost_pages) << sig;
  }
}

// ---------------------------------------------------------------------------
// Advisor end-to-end: BITMAP candidates compete and win under a budget.
// ---------------------------------------------------------------------------

class BitmapAdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 3000;
    tpch::Build(&db_, opt);
    // Equality-heavy workload over low-distinct lineitem columns: the
    // sweet spot for per-value bitmaps (l_shipmode: 7 distinct,
    // l_returnflag: 3).
    SelectQuery q1;
    q1.table = "lineitem";
    q1.predicates = {{"l_shipmode", FilterOp::kEq, Value::String("MAIL"), {}}};
    q1.aggregates = {{"l_extendedprice", "SUM"}};
    SelectQuery q2;
    q2.table = "lineitem";
    q2.predicates = {{"l_returnflag", FilterOp::kEq, Value::String("R"), {}}};
    q2.aggregates = {{"l_quantity", "SUM"}};
    q2.group_by = {"l_shipmode"};
    workload_.statements = {Statement::Select("B1", q1, 4.0),
                            Statement::Select("B2", q2, 2.0)};
    optimizer_ = std::make_unique<WhatIfOptimizer>(db_, CostModelParams{});
  }

  AdvisorResult Run(const AdvisorOptions& options, double budget_frac) {
    SampleManager samples(99);
    TableSampleSource source(db_, &samples);
    SizeEstimator sizes(db_, &source, ErrorModel(), options.size_options);
    Advisor advisor(db_, *optimizer_, &sizes, nullptr, options);
    return advisor.Tune(
        workload_, budget_frac * static_cast<double>(db_.BaseDataBytes()));
  }

  static size_t CountBitmapIndexes(const Configuration& config) {
    size_t n = 0;
    for (const PhysicalIndexEstimate& idx : config.indexes()) {
      if (idx.def.compression == CompressionKind::kBitmap) ++n;
    }
    return n;
  }

  Database db_;
  Workload workload_;
  std::unique_ptr<WhatIfOptimizer> optimizer_;
};

TEST_F(BitmapAdvisorTest, AdvisorSelectsBitmapAndBeatsPreviousBest) {
  bool bitmap_won_somewhere = false;
  for (double frac : {0.05, 0.15, 0.3}) {
    const AdvisorResult both = Run(AdvisorOptions::DTAcBoth(), frac);
    const AdvisorResult bitmap = Run(AdvisorOptions::DTAcBitmap(), frac);
    // A strictly larger variant space can never lose by much; assert it
    // never regresses materially at any point.
    EXPECT_LE(bitmap.final_cost, both.final_cost * 1.02) << "frac=" << frac;
    if (CountBitmapIndexes(bitmap.config) > 0 &&
        bitmap.final_cost < both.final_cost) {
      bitmap_won_somewhere = true;
    }
  }
  // The acceptance point: somewhere on the budget axis the advisor chose a
  // BITMAP structure and beat the previous best design at equal budget.
  EXPECT_TRUE(bitmap_won_somewhere);
}

TEST_F(BitmapAdvisorTest, BitmapVariantsOnlyOnLowDistinctLeadingKeys) {
  AdvisorOptions options = AdvisorOptions::DTAcBitmap();
  CandidateGenerator generator(db_, *optimizer_, nullptr, options);
  const std::vector<IndexDef> candidates =
      generator.GenerateForWorkload(workload_);
  size_t bitmap_variants = 0;
  for (const IndexDef& d : candidates) {
    if (d.compression != CompressionKind::kBitmap) continue;
    ++bitmap_variants;
    ASSERT_FALSE(d.key_columns.empty());
    const ColumnStats& cs = db_.stats(d.object).column(d.key_columns.front());
    EXPECT_LE(cs.distinct, kBitmapMaxLeadingDistinct) << d.ToString();
  }
  EXPECT_GT(bitmap_variants, 0u);
}

}  // namespace
}  // namespace capd
