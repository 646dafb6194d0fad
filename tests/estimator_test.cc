// Tests for the size-estimation framework: SampleCF, deductions, error
// model, and the Section 5.2 graph search.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "estimator/size_estimator.h"
#include "index/index_builder.h"
#include "workloads/scale.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class EstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 6000;
    tpch::Build(&db_, opt);
    samples_ = std::make_unique<SampleManager>(1234);
    source_ = std::make_unique<TableSampleSource>(db_, samples_.get());
  }

  IndexDef Idx(std::vector<std::string> keys,
               CompressionKind kind = CompressionKind::kRow,
               std::vector<std::string> includes = {}) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = std::move(keys);
    def.include_columns = std::move(includes);
    def.compression = kind;
    return def;
  }

  double TrueBytes(const IndexDef& def) {
    IndexBuilder builder(db_.table(def.object));
    return static_cast<double>(builder.Build(def).fine_bytes());
  }

  Database db_;
  std::unique_ptr<SampleManager> samples_;
  std::unique_ptr<TableSampleSource> source_;
};

TEST_F(EstimatorTest, SampleCfCloseToTruth) {
  SampleCfEstimator estimator(db_, source_.get());
  for (CompressionKind kind : {CompressionKind::kRow, CompressionKind::kPage}) {
    const IndexDef def = Idx({"l_shipdate", "l_shipmode"}, kind);
    const SampleCfResult r = estimator.Estimate(def, 0.1);
    const double truth = TrueBytes(def);
    EXPECT_LT(std::abs(r.est_bytes - truth) / truth, 0.35)
        << CompressionKindName(kind) << " est=" << r.est_bytes
        << " true=" << truth;
  }
}

TEST_F(EstimatorTest, SampleCfTuplesForPartialIndex) {
  SampleCfEstimator estimator(db_, source_.get());
  IndexDef def = Idx({"l_quantity"});
  def.filter = ColumnFilter{"l_quantity", FilterOp::kLt, Value::Int64(10), {}};
  const SampleCfResult r = estimator.Estimate(def, 0.1);
  // quantity uniform on [1,50): ~18% under 10.
  EXPECT_GT(r.est_tuples, 0.08 * 6000);
  EXPECT_LT(r.est_tuples, 0.35 * 6000);
}

TEST_F(EstimatorTest, SampleCfCostScalesWithWidthAndFraction) {
  SampleCfEstimator estimator(db_, source_.get());
  auto cost = [&](const IndexDef& def, double f) {
    return estimator.PredictCostPages(def, f, estimator.RowBytes(def));
  };
  const IndexDef narrow = Idx({"l_shipdate"});
  IndexDef wide = narrow;
  wide.include_columns = {"l_extendedprice", "l_discount", "l_quantity",
                          "l_shipmode"};
  EXPECT_LT(cost(narrow, 0.05), cost(wide, 0.05));
  EXPECT_LT(cost(narrow, 0.05), cost(narrow, 0.1));
}

TEST_F(EstimatorTest, ErrorModelShrinksWithF) {
  const ErrorModel model;
  const ErrorStats coarse = model.SampleCf(CompressionKind::kPage, 0.01);
  const ErrorStats fine = model.SampleCf(CompressionKind::kPage, 0.10);
  EXPECT_GT(std::abs(coarse.bias), std::abs(fine.bias));
  EXPECT_GT(coarse.variance, fine.variance);
  const ErrorStats full = model.SampleCf(CompressionKind::kPage, 1.0);
  EXPECT_DOUBLE_EQ(full.bias, 0.0);
  EXPECT_DOUBLE_EQ(full.variance, 0.0);
}

TEST_F(EstimatorTest, ErrorModelDeductionGrowsWithA) {
  const ErrorModel model;
  const ErrorStats a2 = model.ColExt(CompressionKind::kRow, 2);
  const ErrorStats a4 = model.ColExt(CompressionKind::kRow, 4);
  EXPECT_LT(std::abs(a2.bias), std::abs(a4.bias));
  EXPECT_LT(a2.variance, a4.variance);
  // LD deductions are worse than NS (Table 3).
  EXPECT_GT(std::abs(model.ColExt(CompressionKind::kPage, 2).bias),
            std::abs(a2.bias));
}

TEST_F(EstimatorTest, ComposeErrorsAccumulates) {
  const ErrorStats one{0.01, 0.001};
  const ErrorStats composed = ComposeErrors({one, one, one});
  EXPECT_GT(composed.bias, 0.029);
  EXPECT_GT(composed.variance, 0.0029);
}

TEST_F(EstimatorTest, ColExtDeductionOrdIndAccurate) {
  // Deduce size of (l_shipdate, l_shipmode) from singleton indexes; check
  // against ground truth within the paper's coarse tolerance.
  SampleCfEstimator estimator(db_, source_.get());
  DeductionEngine engine(db_, source_.get(), 0.1);

  const IndexDef target =
      Idx({"l_shipdate", "l_shipmode"}, CompressionKind::kRow);
  std::vector<KnownSize> children;
  for (const std::string col : {"l_shipdate", "l_shipmode"}) {
    const IndexDef child = Idx({col}, CompressionKind::kRow);
    const SampleCfResult r = estimator.Estimate(child, 0.1);
    children.push_back(KnownSize{child, r.est_bytes, r.est_uncompressed_bytes,
                                 r.est_ns_bytes, r.est_tuples});
  }
  const double u = estimator.UncompressedFullBytes(target, 6000);
  const double deduced = engine.DeduceColExt(target, u, 6000, children);
  const double truth = TrueBytes(target);
  EXPECT_LT(std::abs(deduced - truth) / truth, 0.5)
      << "deduced=" << deduced << " true=" << truth;
}

TEST_F(EstimatorTest, ColExtOrdDepPenalizesFragmentation) {
  // For local-dictionary compression, the trailing column's reduction must
  // be penalized: deduced size of (random-ish leading, compressible
  // trailing) must exceed naive sum-of-reductions.
  SampleCfEstimator estimator(db_, source_.get());
  DeductionEngine engine(db_, source_.get(), 0.1);

  const IndexDef target =
      Idx({"l_partkey", "l_shipmode"}, CompressionKind::kPage);
  std::vector<KnownSize> children;
  double naive_reduction = 0.0;
  for (const std::string col : {"l_partkey", "l_shipmode"}) {
    const IndexDef child = Idx({col}, CompressionKind::kPage);
    const SampleCfResult r = estimator.Estimate(child, 0.1);
    children.push_back(KnownSize{child, r.est_bytes, r.est_uncompressed_bytes,
                                 r.est_ns_bytes, r.est_tuples});
    naive_reduction += r.est_uncompressed_bytes - r.est_bytes;
  }
  const double u = estimator.UncompressedFullBytes(target, 6000);
  const double deduced = engine.DeduceColExt(target, u, 6000, children);
  EXPECT_GT(deduced, u - naive_reduction - 1.0);
}

TEST_F(EstimatorTest, DistinctEstimateReasonable) {
  DeductionEngine engine(db_, source_.get(), 0.1);
  const double d = engine.EstimateDistinct("lineitem", {"l_shipmode"});
  EXPECT_NEAR(d, 7.0, 1.5);
}

TEST_F(EstimatorTest, GraphGreedyNeverCostsMoreThanAll) {
  EstimationGraph graph(db_, source_.get(), ErrorModel());
  std::vector<IndexDef> targets = {
      Idx({"l_shipdate"}), Idx({"l_shipdate", "l_shipmode"}),
      Idx({"l_shipdate", "l_shipmode", "l_quantity"}),
      Idx({"l_partkey", "l_suppkey"})};
  graph.AddTargets(targets);
  for (double f : {0.01, 0.05, 0.1}) {
    const double greedy = graph.Greedy(f, 0.5, 0.9);
    const double all = graph.AllSampledCost(f);
    EXPECT_LE(greedy, all + 1e-9) << "f=" << f;
  }
}

TEST_F(EstimatorTest, GraphGreedyUsesDeductionWhenLoose) {
  EstimationGraph graph(db_, source_.get(), ErrorModel());
  graph.AddTargets({Idx({"l_shipdate"}), Idx({"l_shipmode"}),
                    Idx({"l_shipdate", "l_shipmode"})});
  graph.Greedy(0.05, /*e=*/1.0, /*q=*/0.8);  // loose constraint
  EXPECT_GE(graph.NumDeduced(), 1u);
}

TEST_F(EstimatorTest, GraphTightConstraintForcesSampling) {
  EstimationGraph graph(db_, source_.get(), ErrorModel());
  graph.AddTargets({Idx({"l_shipdate", "l_shipmode"}, CompressionKind::kPage)});
  // Nearly impossible via deduction.
  graph.Greedy(0.05, /*e=*/0.02, /*q=*/0.99);
  EXPECT_EQ(graph.NumDeduced(), 0u);
  EXPECT_GE(graph.NumSampled(), 1u);
}

TEST_F(EstimatorTest, GraphColSetDeductionForPermutation) {
  EstimationGraph graph(db_, source_.get(), ErrorModel());
  graph.AddTargets({Idx({"l_shipdate", "l_shipmode"}),
                    Idx({"l_shipmode", "l_shipdate"})});
  graph.Greedy(0.05, 0.5, 0.9);
  // One gets sampled (or deduced from singletons); the permutation should
  // ride for free via ColSet.
  EXPECT_GE(graph.NumDeduced(), 1u);
  const auto estimates = graph.Execute(0.05);
  ASSERT_EQ(estimates.size(), 2u);
  const double a = estimates.begin()->second.est_bytes;
  const double b = std::next(estimates.begin())->second.est_bytes;
  EXPECT_NEAR(a, b, 1.0);  // identical by construction
}

TEST_F(EstimatorTest, GraphExecuteCoversAllTargets) {
  EstimationGraph graph(db_, source_.get(), ErrorModel());
  std::vector<IndexDef> targets = {
      Idx({"l_shipdate"}), Idx({"l_quantity", "l_discount"}),
      Idx({"l_shipdate", "l_shipmode", "l_quantity"}, CompressionKind::kPage)};
  graph.AddTargets(targets);
  graph.Greedy(0.05, 0.5, 0.9);
  const auto estimates = graph.Execute(0.05);
  for (const IndexDef& t : targets) {
    ASSERT_TRUE(estimates.count(t.Signature())) << t.ToString();
    EXPECT_GT(estimates.at(t.Signature()).est_bytes, 0.0);
  }
}

TEST_F(EstimatorTest, OptimalNoWorseThanGreedy) {
  EstimationGraph graph(db_, source_.get(), ErrorModel());
  graph.AddTargets({Idx({"l_shipdate"}), Idx({"l_shipmode"}),
                    Idx({"l_shipdate", "l_shipmode"})});
  const double greedy = graph.Greedy(0.05, 0.5, 0.9);
  const double optimal = graph.Optimal(0.05, 0.5, 0.9);
  EXPECT_LE(optimal, greedy + 1e-9);
}

TEST_F(EstimatorTest, ExistingIndexIsFree) {
  const IndexDef existing = Idx({"l_shipdate"});
  db_.AddExistingIndex(existing, 123 * kPageSize);
  EstimationGraph graph(db_, source_.get(), ErrorModel());
  graph.AddTargets({existing.WithCompression(CompressionKind::kRow)});
  graph.Greedy(0.05, 0.5, 0.9);
  const auto estimates = graph.Execute(0.05);
  EXPECT_EQ(estimates.size(), 1u);
}

TEST_F(EstimatorTest, SizeEstimatorBatchesAndChoosesF) {
  SizeEstimator estimator(db_, source_.get(), ErrorModel(),
                          SizeEstimationOptions{});
  const std::vector<IndexDef> targets = {
      Idx({"l_shipdate"}), Idx({"l_shipdate", "l_shipmode"}),
      Idx({"l_partkey"}, CompressionKind::kPage)};
  const SizeEstimator::BatchResult batch = estimator.EstimateAll(targets);
  EXPECT_EQ(batch.estimates.size(), 3u);
  EXPECT_GT(batch.chosen_f, 0.0);
  EXPECT_GT(batch.total_cost_pages, 0.0);
  for (const auto& [sig, est] : batch.estimates) {
    EXPECT_GT(est.est_bytes, 0.0);
    EXPECT_LE(est.cf, 1.2);
  }
}

TEST_F(EstimatorTest, UncompressedSizeDeterministic) {
  SizeEstimator estimator(db_, source_.get(), ErrorModel(),
                          SizeEstimationOptions{});
  const IndexDef def = Idx({"l_shipdate"}, CompressionKind::kNone);
  const SampleCfResult a = estimator.UncompressedSize(def);
  const SampleCfResult b = estimator.UncompressedSize(def);
  EXPECT_DOUBLE_EQ(a.est_bytes, b.est_bytes);
  const double truth = TrueBytes(def);
  EXPECT_LT(std::abs(a.est_bytes - truth) / truth, 0.05);
}

// Forwards only what a SampleSource must implement, so SampleRows takes the
// default path and draws the sample: every fraction probe pays a full draw,
// the way the fraction search ran before its probes were size-only.
class DrawingSampleSource : public SampleSource {
 public:
  explicit DrawingSampleSource(SampleSource* inner) : inner_(inner) {}
  const Table& Sample(const std::string& object, double f) override {
    return inner_->Sample(object, f);
  }
  double FullTuples(const std::string& object) override {
    return inner_->FullTuples(object);
  }
  const Schema& ObjectSchema(const std::string& object) override {
    return inner_->ObjectSchema(object);
  }

 private:
  SampleSource* inner_;
};

TEST(SampleRowsTest, MatchesDrawnSampleOnBaseTables) {
  Database db;
  // Sizes around the 50-row floor, and fractions landing just under, on and
  // over it (5000 * 0.0098 rounds to 49, * 0.01 to 50, * 0.0102 to 51).
  const std::vector<uint64_t> sizes = {0, 1, 30, 49, 50, 51, 99, 5000, 5001};
  for (const uint64_t n : sizes) {
    auto t = std::make_unique<Table>("t" + std::to_string(n),
                                     Schema({{"a", ValueType::kInt64, 8}}));
    for (uint64_t i = 0; i < n; ++i) {
      t->AddRow({Value::Int64(static_cast<int64_t>(i))});
    }
    db.AddTable(std::move(t));
  }
  scale::Options opt;
  opt.fact_rows = 30000;
  scale::Build(&db, opt);  // a generated (blocked, never materialized) table
  ASSERT_FALSE(db.table("events").materialized());

  std::vector<std::string> objects = {"events"};
  for (const uint64_t n : sizes) objects.push_back("t" + std::to_string(n));
  const std::vector<double> fs = {0.001, 0.0098, 0.01, 0.0102, 0.1, 1.0};

  SampleManager samples(99);
  TableSampleSource source(db, &samples);
  for (const std::string& object : objects) {
    for (const double f : fs) {
      source.SampleRows(object, f);
    }
  }
  EXPECT_EQ(samples.num_samples(), 0u) << "SampleRows must not draw";
  EXPECT_EQ(samples.rows_scanned(), 0u);

  for (const std::string& object : objects) {
    for (const double f : fs) {
      EXPECT_EQ(source.SampleRows(object, f),
                source.Sample(object, f).num_rows())
          << object << " f=" << f;
    }
  }
}

TEST_F(EstimatorTest, FractionSearchDrawsOnlyTheChosenSample) {
  std::vector<IndexDef> targets = {
      Idx({"l_shipdate"}), Idx({"l_shipdate", "l_shipmode"}),
      Idx({"l_partkey"}, CompressionKind::kPage),
      Idx({"l_orderkey", "l_quantity"}, CompressionKind::kPage)};
  IndexDef part;
  part.object = "part";
  part.key_columns = {"p_brand", "p_size"};
  part.compression = CompressionKind::kPage;
  targets.push_back(part);

  // The size-only run batches its probes and leaves on a pool; the eager
  // reference runs serially.
  ThreadPool pool(2);
  SizeEstimationOptions options;
  options.pool = &pool;
  SizeEstimator size_only(db_, source_.get(), ErrorModel(), options);
  const SizeEstimator::BatchResult a = size_only.EstimateAll(targets);
  EXPECT_EQ(samples_->num_samples(), 2u) << "one sample per object";

  SampleManager eager_samples(1234);
  TableSampleSource eager_inner(db_, &eager_samples);
  DrawingSampleSource eager(&eager_inner);
  SizeEstimator drawing(db_, &eager, ErrorModel(), SizeEstimationOptions{});
  const SizeEstimator::BatchResult b = drawing.EstimateAll(targets);
  EXPECT_EQ(eager_samples.num_samples(), 2 * options.fractions.size());

  EXPECT_EQ(std::memcmp(&a.chosen_f, &b.chosen_f, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.total_cost_pages, &b.total_cost_pages,
                        sizeof(double)),
            0);
  EXPECT_EQ(a.num_sampled, b.num_sampled);
  EXPECT_EQ(a.num_deduced, b.num_deduced);
  ASSERT_EQ(a.estimates.size(), targets.size());
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (auto x = a.estimates.begin(), y = b.estimates.begin();
       x != a.estimates.end(); ++x, ++y) {
    EXPECT_EQ(x->first, y->first);
    EXPECT_EQ(std::memcmp(&x->second, &y->second, sizeof(SampleCfResult)), 0)
        << x->first;
  }
}

}  // namespace
}  // namespace capd
