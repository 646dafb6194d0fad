// Tests for materialized views: materialization, MV samples from join
// synopses, Adaptive-Estimator tuple counts (Appendix B), and MV matching.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mv/mv_registry.h"
#include "query/sql_parser.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class MVTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 8000;
    tpch::Build(&db_, opt);
    samples_ = std::make_unique<SampleManager>(555);
    registry_ = std::make_unique<MVRegistry>(db_, samples_.get());
  }

  MVDef ShipdateMV() {
    MVDef def;
    def.name = "mv_ship";
    def.fact_table = "lineitem";
    def.group_by = {"l_shipdate"};
    def.aggregates = {{"l_extendedprice", "SUM"}};
    return def;
  }

  Database db_;
  std::unique_ptr<SampleManager> samples_;
  std::unique_ptr<MVRegistry> registry_;
};

TEST_F(MVTest, MaterializeGroupsCorrectly) {
  MVDef def = ShipdateMV();
  auto mv = MaterializeMV(db_, def);
  // Distinct ship dates is the exact group count.
  EXPECT_EQ(mv->num_rows(),
            db_.stats("lineitem").column("l_shipdate").distinct);
  // Total count column sums to fact rows.
  const size_t cpos = mv->schema().ColumnIndex(kMVCountColumn);
  int64_t total = 0;
  for (const Row& r : mv->rows()) total += r[cpos].AsInt64();
  EXPECT_EQ(total, 8000);
}

TEST_F(MVTest, MaterializeWithFilter) {
  MVDef def = ShipdateMV();
  def.name = "mv_ship_r";
  def.predicates = {{"l_returnflag", FilterOp::kEq, Value::String("R"), {}}};
  auto mv = MaterializeMV(db_, def);
  const size_t cpos = mv->schema().ColumnIndex(kMVCountColumn);
  int64_t total = 0;
  for (const Row& r : mv->rows()) total += r[cpos].AsInt64();
  EXPECT_LT(total, 8000 / 2);
  EXPECT_GT(total, 8000 / 10);
}

TEST_F(MVTest, MaterializeWithJoin) {
  MVDef def;
  def.name = "mv_brand";
  def.fact_table = "lineitem";
  def.joins = {{"part", "l_partkey", "p_partkey"}};
  def.group_by = {"p_brand"};
  def.aggregates = {{"l_extendedprice", "SUM"}};
  auto mv = MaterializeMV(db_, def);
  EXPECT_EQ(mv->num_rows(), 5u);  // five brands in the generator
}

TEST_F(MVTest, SampleSourceRoutesMVs) {
  registry_->Register(ShipdateMV());
  const Table& mv_sample = registry_->Sample("mv_ship", 0.05);
  EXPECT_TRUE(mv_sample.schema().HasColumn(kMVCountColumn));
  // Base tables still route to the plain sampler.
  const Table& li_sample = registry_->Sample("lineitem", 0.05);
  EXPECT_EQ(li_sample.schema().num_columns(),
            db_.table("lineitem").schema().num_columns());
}

TEST_F(MVTest, SampleRowsMatchesDrawnSamples) {
  registry_->Register(ShipdateMV());
  // Base tables resolve size-only through the registry: nothing is drawn.
  registry_->SampleRows("lineitem", 0.05);
  registry_->SampleRows("part", 0.05);
  EXPECT_EQ(samples_->num_samples(), 0u);
  for (const double f : {0.01, 0.05, 0.1}) {
    for (const std::string object : {"mv_ship", "lineitem", "part"}) {
      EXPECT_EQ(registry_->SampleRows(object, f),
                registry_->Sample(object, f).num_rows())
          << object << " f=" << f;
    }
  }
}

TEST_F(MVTest, AdaptiveEstimateBeatsBaselines) {
  // The Table 1 phenomenon in miniature: AE should land near the true
  // group count, Multiply should overshoot badly (dates repeat), the
  // independence estimate is irrelevant here (single column) so compare
  // just AE vs Multiply.
  MVDef def = ShipdateMV();
  registry_->Register(def);
  const double truth = static_cast<double>(MaterializeMV(db_, def)->num_rows());
  const MVTupleEstimates est = registry_->EstimateTuples(def, 0.05);
  const double ae_err = std::abs(est.adaptive - truth) / truth;
  const double mult_err = std::abs(est.multiply - truth) / truth;
  EXPECT_LT(ae_err, 0.5);
  EXPECT_GT(mult_err, ae_err);
}

TEST_F(MVTest, MatchAcceptsGeneratingQuery) {
  registry_->Register(ShipdateMV());
  std::string err;
  auto stmt = ParseSql(
      "SELECT l_shipdate, SUM(l_extendedprice) FROM lineitem "
      "GROUP BY l_shipdate",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  IndexDef idx;
  idx.object = "mv_ship";
  idx.key_columns = {"l_shipdate"};
  const auto access = registry_->Match(idx, stmt->select);
  ASSERT_TRUE(access.has_value());
  EXPECT_GT(access->mv_tuples, 0.0);
  EXPECT_DOUBLE_EQ(access->selected_frac, 1.0);
}

TEST_F(MVTest, MatchAppliesResidualPredicateOnGroupColumn) {
  registry_->Register(ShipdateMV());
  std::string err;
  auto stmt = ParseSql(
      "SELECT l_shipdate, SUM(l_extendedprice) FROM lineitem "
      "WHERE l_shipdate >= DATE '1998-01-01' GROUP BY l_shipdate",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  IndexDef idx;
  idx.object = "mv_ship";
  idx.key_columns = {"l_shipdate"};
  const auto access = registry_->Match(idx, stmt->select);
  ASSERT_TRUE(access.has_value());
  EXPECT_LT(access->selected_frac, 1.0);
  EXPECT_TRUE(access->leading_key_seek);
}

TEST_F(MVTest, MatchRejectsWrongGrouping) {
  registry_->Register(ShipdateMV());
  std::string err;
  auto stmt = ParseSql(
      "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem "
      "GROUP BY l_shipmode",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  IndexDef idx;
  idx.object = "mv_ship";
  idx.key_columns = {"l_shipdate"};
  EXPECT_FALSE(registry_->Match(idx, stmt->select).has_value());
}

TEST_F(MVTest, MatchRejectsNonGroupResidualPredicate) {
  registry_->Register(ShipdateMV());
  std::string err;
  auto stmt = ParseSql(
      "SELECT l_shipdate, SUM(l_extendedprice) FROM lineitem "
      "WHERE l_quantity < 10 GROUP BY l_shipdate",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  IndexDef idx;
  idx.object = "mv_ship";
  idx.key_columns = {"l_shipdate"};
  // l_quantity is aggregated away in the MV: cannot filter on it.
  EXPECT_FALSE(registry_->Match(idx, stmt->select).has_value());
}

TEST_F(MVTest, MatchRejectsMissingAggregate) {
  registry_->Register(ShipdateMV());
  std::string err;
  auto stmt = ParseSql(
      "SELECT l_shipdate, SUM(l_tax) FROM lineitem GROUP BY l_shipdate", db_,
      &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  IndexDef idx;
  idx.object = "mv_ship";
  idx.key_columns = {"l_shipdate"};
  EXPECT_FALSE(registry_->Match(idx, stmt->select).has_value());
}

TEST_F(MVTest, FactTableOfReportsMVOwner) {
  registry_->Register(ShipdateMV());
  EXPECT_EQ(registry_->FactTableOf("mv_ship"),
            std::optional<std::string>("lineitem"));
  EXPECT_EQ(registry_->FactTableOf("lineitem"), std::nullopt);
}

TEST_F(MVTest, ObjectSchemaForMV) {
  registry_->Register(ShipdateMV());
  const Schema& s = registry_->ObjectSchema("mv_ship");
  EXPECT_TRUE(s.HasColumn("l_shipdate"));
  EXPECT_TRUE(s.HasColumn("sum_l_extendedprice"));
  EXPECT_TRUE(s.HasColumn(kMVCountColumn));
}

TEST_F(MVTest, FullTuplesCachesAEEstimate) {
  registry_->Register(ShipdateMV());
  const double a = registry_->FullTuples("mv_ship");
  const double b = registry_->FullTuples("mv_ship");
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.0);
}

TEST(MVSampleKeyTest, NearbyFractionsAreDistinctSamples) {
  // 0.0605 and 0.06049999 print alike to six significant digits, but on a
  // 1,000-row fact table their samples have 61 and 60 rows. Each MV sample
  // aggregates its own fraction's synopsis, so its count column sums to
  // that fraction's sample size.
  Database db;
  tpch::Options opt;
  opt.lineitem_rows = 1000;
  tpch::Build(&db, opt);
  SampleManager samples(555);
  MVRegistry registry(db, &samples);
  MVDef def;
  def.name = "mv_ship";
  def.fact_table = "lineitem";
  def.group_by = {"l_shipdate"};
  def.aggregates = {{"l_extendedprice", "SUM"}};
  registry.Register(def);

  const std::vector<double> fractions = {0.0605, 0.06049999};
  std::vector<int64_t> sums;
  for (const double f : fractions) {
    const Table& mv_sample = registry.Sample("mv_ship", f);
    const size_t cpos = mv_sample.schema().ColumnIndex(kMVCountColumn);
    int64_t total = 0;
    for (const Row& r : mv_sample.rows()) total += r[cpos].AsInt64();
    sums.push_back(total);
  }
  EXPECT_EQ(registry.Sample("lineitem", fractions[0]).num_rows(), 61u);
  EXPECT_EQ(registry.Sample("lineitem", fractions[1]).num_rows(), 60u);
  EXPECT_EQ(sums, (std::vector<int64_t>{61, 60}));
}

}  // namespace
}  // namespace capd
