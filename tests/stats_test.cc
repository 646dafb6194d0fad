// Tests for statistics: histograms, samplers (concurrent pooled draws
// included), join synopses, distinct-value estimators.
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "catalog/database.h"
#include "stats/column_stats.h"
#include "stats/distinct_estimator.h"
#include "stats/join_synopsis.h"
#include "stats/sampler.h"
#include "workloads/scale.h"

namespace capd {
namespace {

TEST(HistogramTest, UniformSelectivity) {
  std::vector<double> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(static_cast<double>(i % 1000));
  Histogram h = Histogram::Build(keys, 64);
  EXPECT_NEAR(h.SelectivityBetween(0, 499), 0.5, 0.05);
  EXPECT_NEAR(h.SelectivityLe(99), 0.1, 0.03);
  EXPECT_NEAR(h.SelectivityGe(900), 0.1, 0.03);
  EXPECT_NEAR(h.SelectivityBetween(h.min(), h.max()), 1.0, 1e-9);
}

TEST(HistogramTest, EmptyAndSingleton) {
  Histogram empty = Histogram::Build({}, 8);
  EXPECT_EQ(empty.SelectivityBetween(0, 1), 0.0);
  Histogram one = Histogram::Build({5.0}, 8);
  EXPECT_NEAR(one.SelectivityBetween(5, 5), 1.0, 1e-9);
  EXPECT_EQ(one.SelectivityBetween(6, 7), 0.0);
}

TEST(HistogramTest, SkewedDataStillSumsToOne) {
  Random rng(3);
  std::vector<double> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(std::floor(std::pow(static_cast<double>(rng.Uniform(1, 100)), 2.0)));
  }
  Histogram h = Histogram::Build(keys, 32);
  EXPECT_NEAR(h.SelectivityBetween(h.min(), h.max()), 1.0, 1e-9);
}

TEST(TableStatsTest, DistinctAndRange) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}, {"s", ValueType::kString, 8}}));
  for (int i = 0; i < 300; ++i) {
    t.AddRow({Value::Int64(i % 10), Value::String(i % 2 ? "x" : "y")});
  }
  const TableStats stats = TableStats::Compute(t);
  EXPECT_EQ(stats.column("a").distinct, 10u);
  EXPECT_EQ(stats.column("s").distinct, 2u);
  EXPECT_EQ(stats.column("a").min_key, 0.0);
  EXPECT_EQ(stats.column("a").max_key, 9.0);
  EXPECT_GT(stats.column("a").avg_leading_zero_bytes, 6.0);
}

TEST(TableStatsTest, DistinctOfColumnsCombo) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}, {"b", ValueType::kInt64, 8}}));
  for (int i = 0; i < 100; ++i) {
    t.AddRow({Value::Int64(i % 4), Value::Int64(i % 6)});
  }
  const TableStats stats = TableStats::Compute(t);
  EXPECT_EQ(stats.DistinctOfColumns(t, {"a"}), 4u);
  EXPECT_EQ(stats.DistinctOfColumns(t, {"b"}), 6u);
  EXPECT_EQ(stats.DistinctOfColumns(t, {"a", "b"}), 12u);  // lcm structure
}

TEST(SamplerTest, FractionRespected) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  for (int i = 0; i < 10000; ++i) t.AddRow({Value::Int64(i)});
  Random rng(1);
  auto sample = CreateUniformSample(t, 0.05, 1, &rng);
  EXPECT_EQ(sample->num_rows(), 500u);
}

TEST(SamplerTest, MinRowsFloor) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  for (int i = 0; i < 200; ++i) t.AddRow({Value::Int64(i)});
  Random rng(1);
  auto sample = CreateUniformSample(t, 0.01, 50, &rng);
  EXPECT_EQ(sample->num_rows(), 50u);
}

TEST(SamplerTest, EdgeFractionsClampWithoutOverflow) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  for (int i = 0; i < 100; ++i) t.AddRow({Value::Int64(i)});
  // f = 1.0 takes every row exactly once, in order.
  Random rng(4);
  auto all = CreateUniformSample(t, 1.0, 1, &rng);
  ASSERT_EQ(all->num_rows(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(all->rows()[i][0].AsInt64(), i);
  // Tiny f floors at min_rows, capped at n.
  Random rng2(4);
  auto floor = CreateUniformSample(t, 1e-12, 500, &rng2);
  EXPECT_EQ(floor->num_rows(), 100u);  // min_rows > n clamps to n
  // Sub-half-row fraction on a tiny table rounds to 0 and floors at 1.
  Table one("one", Schema({{"a", ValueType::kInt64, 8}}));
  one.AddRow({Value::Int64(9)});
  Random rng3(4);
  auto single = CreateUniformSample(one, 1e-6, 1, &rng3);
  EXPECT_EQ(single->num_rows(), 1u);
}

TEST(SamplerTest, SampleRowsComeFromTable) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  for (int i = 0; i < 1000; ++i) t.AddRow({Value::Int64(i * 7)});
  Random rng(2);
  auto sample = CreateUniformSample(t, 0.1, 1, &rng);
  for (const Row& r : sample->rows()) {
    EXPECT_EQ(r[0].AsInt64() % 7, 0);
  }
}

TEST(SampleManagerTest, AmortizesSampling) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  for (int i = 0; i < 5000; ++i) t.AddRow({Value::Int64(i)});
  SampleManager mgr(7);
  const Table& s1 = mgr.GetSample(t, 0.02);
  const uint64_t scanned_once = mgr.rows_scanned();
  const Table& s2 = mgr.GetSample(t, 0.02);
  EXPECT_EQ(&s1, &s2);                          // cached
  EXPECT_EQ(mgr.rows_scanned(), scanned_once);  // no rescan
  mgr.GetSample(t, 0.05);                       // new fraction -> rescan
  EXPECT_EQ(mgr.rows_scanned(), 2 * scanned_once);
}

// Fractions that print alike to six significant digits ("0.0605") are
// still distinct samples, each as large as SampleRows promises: 61 and 60
// rows of 1,000.
TEST(SampleManagerTest, NearbyFractionsAreDistinctSamples) {
  Table t("t", Schema({{"a", ValueType::kInt64, 8}}));
  for (int i = 0; i < 1000; ++i) t.AddRow({Value::Int64(i)});
  SampleManager mgr(7);
  const Table& a = mgr.GetSample(t, 0.0605);
  const Table& b = mgr.GetSample(t, 0.06049999);
  EXPECT_EQ(mgr.num_samples(), 2u);
  EXPECT_EQ(a.num_rows(), 61u);
  EXPECT_EQ(b.num_rows(), 60u);
  EXPECT_EQ(a.num_rows(), mgr.SampleRows(t, 0.0605));
  EXPECT_EQ(b.num_rows(), mgr.SampleRows(t, 0.06049999));
}

// Concurrent first requests for one sample: two callers draw through a
// pool, two serially. Whoever draws holds the manager's lock; all four get
// the rows a lone serial draw gives, and the table is scanned once.
TEST(SampleManagerTest, ConcurrentPooledDrawsMatchASerialDraw) {
  Database db;
  scale::Options options;
  options.fact_rows = 30000;
  scale::Build(&db, options);
  const Table& events = db.table("events");
  SampleManager serial(11);
  const Table& expected = serial.GetSample(events, 0.01);

  SampleManager shared(11);
  ThreadPool pool(2);
  std::vector<const Table*> got(4, nullptr);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < got.size(); ++t) {
    callers.emplace_back([&, t] {
      got[t] = &shared.GetSample(events, 0.01, t < 2 ? &pool : nullptr);
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(shared.rows_scanned(), events.num_rows());
  EXPECT_EQ(shared.num_samples(), 1u);
  for (const Table* sample : got) {
    ASSERT_EQ(sample->num_rows(), expected.num_rows());
    EXPECT_EQ(sample->rows(), expected.rows());
  }
}

TEST(JoinSynopsisTest, EveryFactRowMatches) {
  Database db;
  auto dim = std::make_unique<Table>(
      "dim", Schema({{"d_key", ValueType::kInt64, 8},
                     {"d_attr", ValueType::kString, 8}}));
  for (int i = 1; i <= 50; ++i) {
    dim->AddRow({Value::Int64(i), Value::String("attr" + std::to_string(i % 5))});
  }
  const Table* dim_ptr = db.AddTable(std::move(dim));
  auto fact = std::make_unique<Table>(
      "fact", Schema({{"f_id", ValueType::kInt64, 8},
                      {"f_dkey", ValueType::kInt64, 8}}));
  Random rng(5);
  for (int i = 0; i < 2000; ++i) {
    fact->AddRow({Value::Int64(i), Value::Int64(rng.Uniform(1, 50))});
  }
  const Table* fact_ptr = db.AddTable(std::move(fact));

  Random rng2(6);
  auto synopsis = BuildJoinSynopsis(
      *fact_ptr, {dim_ptr}, {{"fact", "f_dkey", "dim", "d_key"}}, 0.1, &rng2);
  EXPECT_EQ(synopsis->num_rows(), 200u);  // join synopses lose no sample rows
  EXPECT_TRUE(synopsis->schema().HasColumn("d_attr"));
  EXPECT_FALSE(synopsis->schema().HasColumn("d_key"));  // carried by f_dkey
}

TEST(DistinctEstimatorTest, FrequencyStatsBuilt) {
  const FrequencyStats f = BuildFrequencyStats({1, 1, 2, 3, 3, 3});
  EXPECT_EQ(f.at(1), 2u);
  EXPECT_EQ(f.at(2), 1u);
  EXPECT_EQ(f.at(3), 3u);
}

TEST(DistinctEstimatorTest, FullCoverageReturnsExact) {
  // Sample == population: estimate must equal observed distinct count.
  const FrequencyStats f = BuildFrequencyStats({5, 5, 5, 5});
  EXPECT_DOUBLE_EQ(AdaptiveEstimate(f, 4, 20, 20), 4.0);
}

TEST(DistinctEstimatorTest, AdaptiveBeatsMultiplyOnSmallDomain) {
  // Population: 10000 tuples over 200 distinct values (uniform). A 5%
  // sample sees ~every value several times; Multiply scales the distinct
  // count by 20x and is badly wrong, AE stays near 200.
  Random rng(11);
  const uint64_t n = 10000;
  std::map<int64_t, uint64_t> sample_counts;
  const uint64_t r = 500;
  for (uint64_t i = 0; i < r; ++i) sample_counts[rng.Uniform(0, 199)]++;
  std::vector<uint64_t> class_counts;
  for (const auto& [v, c] : sample_counts) class_counts.push_back(c);
  const uint64_t d = class_counts.size();
  const FrequencyStats f = BuildFrequencyStats(class_counts);

  const double ae = AdaptiveEstimate(f, d, r, n);
  const double mult = MultiplyEstimate(d, r, n);
  const double true_d = 200.0;
  EXPECT_LT(std::abs(ae - true_d) / true_d, 0.35);
  EXPECT_GT(std::abs(mult - true_d) / true_d, 5.0);
}

TEST(DistinctEstimatorTest, GeeReasonableOnUniform) {
  Random rng(13);
  std::map<int64_t, uint64_t> counts;
  for (int i = 0; i < 400; ++i) counts[rng.Uniform(0, 999)]++;
  std::vector<uint64_t> cc;
  for (const auto& [v, c] : counts) cc.push_back(c);
  const double gee = GeeEstimate(BuildFrequencyStats(cc), 400, 40000);
  EXPECT_GT(gee, 300.0);
  EXPECT_LE(gee, 40000.0);
}

TEST(DistinctEstimatorTest, OptimizerIndependenceOvershootsCorrelated) {
  // Two perfectly correlated columns with 100 distincts each: true combo
  // distinct is 100, independence predicts 10000 (capped by n).
  const double est = OptimizerIndependenceEstimate({100, 100}, 1000000);
  EXPECT_DOUBLE_EQ(est, 10000.0);
}

TEST(DistinctEstimatorTest, ClampedToPopulation) {
  const FrequencyStats f = BuildFrequencyStats(std::vector<uint64_t>(50, 1));
  EXPECT_LE(AdaptiveEstimate(f, 50, 50, 60), 60.0);
  EXPECT_LE(GeeEstimate(f, 50, 60), 60.0);
  EXPECT_LE(MultiplyEstimate(50, 50, 60), 60.0);
}

}  // namespace
}  // namespace capd
