// Tests for the compression-aware what-if optimizer (Appendix A model).
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "optimizer/what_if.h"
#include "query/sql_parser.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 2000;
    tpch::Build(&db_, opt);
    optimizer_ = std::make_unique<WhatIfOptimizer>(db_, CostModelParams{});
  }

  Statement Parse(const std::string& sql) {
    std::string err;
    auto stmt = ParseSql(sql, db_, &err);
    CAPD_CHECK(stmt.has_value()) << err;
    return *stmt;
  }

  // Build a configuration entry with a hand-set size.
  PhysicalIndexEstimate Est(IndexDef def, double bytes, double tuples) {
    PhysicalIndexEstimate e;
    e.def = std::move(def);
    e.bytes = bytes;
    e.tuples = tuples;
    return e;
  }

  IndexDef Idx(std::vector<std::string> keys, std::vector<std::string> incl = {},
               CompressionKind kind = CompressionKind::kNone) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = std::move(keys);
    def.include_columns = std::move(incl);
    def.compression = kind;
    return def;
  }

  Database db_;
  std::unique_ptr<WhatIfOptimizer> optimizer_;
};

TEST_F(OptimizerTest, SelectivityRangeSane) {
  ColumnFilter half{"l_shipdate", FilterOp::kLe,
                    Value::Date(ParseDateLiteral("1996-12-31")), {}};
  const double sel = optimizer_->FilterSelectivity("lineitem", half);
  EXPECT_GT(sel, 0.3);
  EXPECT_LT(sel, 0.7);  // dates uniform over 1994..1999
}

TEST_F(OptimizerTest, EqualitySelectivityUsesDistinct) {
  ColumnFilter eq{"l_shipmode", FilterOp::kEq, Value::String("AIR"), {}};
  const double sel = optimizer_->FilterSelectivity("lineitem", eq);
  EXPECT_NEAR(sel, 1.0 / 7.0, 0.02);  // seven ship modes
}

TEST_F(OptimizerTest, ConjunctionMultiplies) {
  ColumnFilter a{"l_shipmode", FilterOp::kEq, Value::String("AIR"), {}};
  ColumnFilter b{"l_returnflag", FilterOp::kEq, Value::String("R"), {}};
  const Statement q = Parse(
      "SELECT SUM(l_quantity) FROM lineitem "
      "WHERE l_shipmode = 'AIR' AND l_returnflag = 'R'");
  const PreparedStatement prepared = optimizer_->Prepare(q);
  EXPECT_NEAR(prepared.root_sel,
              optimizer_->FilterSelectivity("lineitem", a) *
                  optimizer_->FilterSelectivity("lineitem", b),
              1e-12);
}

TEST_F(OptimizerTest, EmptyConfigUsesHeapScan) {
  const Statement q = Parse("SELECT SUM(l_quantity) FROM lineitem");
  const Configuration empty;
  const PlanCost plan = optimizer_->CostWithPlan(q, empty);
  EXPECT_NE(plan.access_path.find("heap scan"), std::string::npos);
  EXPECT_GT(plan.io, 0.0);
}

TEST_F(OptimizerTest, CoveringIndexBeatsHeapScan) {
  const Statement q = Parse(
      "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate >= DATE '1998-01-01'");
  Configuration config;
  // Covering narrow index, much smaller than the heap.
  config.Add(Est(Idx({"l_shipdate"}, {"l_extendedprice"}), 40 * kPageSize, 2000));
  const Configuration empty;
  EXPECT_LT(optimizer_->Cost(q, config), optimizer_->Cost(q, empty));
  const PlanCost plan = optimizer_->CostWithPlan(q, config);
  EXPECT_NE(plan.access_path.find("seek"), std::string::npos);
}

TEST_F(OptimizerTest, CompressionReducesIoIncreasesCpu) {
  const Statement q = Parse("SELECT SUM(l_extendedprice) FROM lineitem");
  Configuration plain, compressed;
  plain.Add(Est(Idx({"l_orderkey"}, {"l_extendedprice"}), 20 * kPageSize, 2000));
  compressed.Add(Est(Idx({"l_orderkey"}, {"l_extendedprice"}, CompressionKind::kPage),
                     8 * kPageSize, 2000));
  const PlanCost p = optimizer_->CostWithPlan(q, plain);
  const PlanCost c = optimizer_->CostWithPlan(q, compressed);
  EXPECT_LT(c.io, p.io);   // fewer pages
  EXPECT_GT(c.cpu, p.cpu);  // decompression beta
}

TEST_F(OptimizerTest, DecompressionScalesWithUsedColumns) {
  // Same index, two queries touching 1 vs 3 of its columns.
  Configuration config;
  config.Add(Est(Idx({"l_orderkey"}, {"l_extendedprice", "l_quantity", "l_discount"},
                     CompressionKind::kPage),
                 10 * kPageSize, 2000));
  const Statement q1 = Parse("SELECT SUM(l_quantity) FROM lineitem");
  const Statement q3 = Parse(
      "SELECT SUM(l_quantity), SUM(l_discount), SUM(l_extendedprice) FROM lineitem");
  const PlanCost c1 = optimizer_->CostWithPlan(q1, config);
  const PlanCost c3 = optimizer_->CostWithPlan(q3, config);
  EXPECT_GT(c3.cpu, c1.cpu);
  EXPECT_DOUBLE_EQ(c3.io, c1.io);
}

TEST_F(OptimizerTest, NonCoveringSeekChosenOnlyWhenSelective) {
  Configuration narrow;
  narrow.Add(Est(Idx({"l_orderkey"}), 8 * kPageSize, 2000));
  // Highly selective equality (1 of ~500 orderkeys): seek + few lookups
  // beats a heap scan.
  const Statement selective = Parse(
      "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey = 123");
  const PlanCost plan = optimizer_->CostWithPlan(selective, narrow);
  EXPECT_NE(plan.access_path.find("lookup"), std::string::npos);

  // Low selectivity (1 of 7 ship modes): hundreds of random lookups lose to
  // the heap scan, so the optimizer must not pick the index.
  Configuration mode_idx;
  mode_idx.Add(Est(Idx({"l_shipmode"}), 8 * kPageSize, 2000));
  const Statement broad = Parse(
      "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipmode = 'AIR'");
  const PlanCost broad_plan = optimizer_->CostWithPlan(broad, mode_idx);
  EXPECT_NE(broad_plan.access_path.find("heap scan"), std::string::npos);
}

TEST_F(OptimizerTest, PartialIndexRequiresSubsumption) {
  IndexDef partial = Idx({"l_quantity"}, {"l_shipdate"});
  partial.filter =
      ColumnFilter{"l_shipdate", FilterOp::kGe,
                   Value::Date(ParseDateLiteral("1997-01-01")), {}};
  Configuration config;
  config.Add(Est(partial, 10 * kPageSize, 600));

  const Statement inside = Parse(
      "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '1998-01-01' "
      "AND l_quantity < 10");
  const Statement outside = Parse(
      "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '1995-01-01' "
      "AND l_quantity < 10");
  const Configuration empty;
  EXPECT_LT(optimizer_->Cost(inside, config), optimizer_->Cost(inside, empty));
  EXPECT_DOUBLE_EQ(optimizer_->Cost(outside, config),
                   optimizer_->Cost(outside, empty));
}

TEST_F(OptimizerTest, PredicateSubsumption) {
  ColumnFilter filter{"a", FilterOp::kGe, Value::Int64(100), {}};
  std::vector<ColumnFilter> inside = {
      {"a", FilterOp::kBetween, Value::Int64(150), Value::Int64(200)}};
  std::vector<ColumnFilter> outside = {
      {"a", FilterOp::kBetween, Value::Int64(50), Value::Int64(200)}};
  std::vector<ColumnFilter> other = {{"b", FilterOp::kEq, Value::Int64(7), {}}};
  EXPECT_TRUE(PredicatesSubsumeFilter(inside, filter));
  EXPECT_FALSE(PredicatesSubsumeFilter(outside, filter));
  EXPECT_FALSE(PredicatesSubsumeFilter(other, filter));
}

TEST_F(OptimizerTest, InsertCostGrowsWithIndexCount) {
  const Statement ins = Parse("INSERT INTO lineitem VALUES 1000 ROWS");
  Configuration none, one, two;
  one.Add(Est(Idx({"l_shipdate"}), 30 * kPageSize, 2000));
  two.Add(Est(Idx({"l_shipdate"}), 30 * kPageSize, 2000));
  two.Add(Est(Idx({"l_partkey"}), 30 * kPageSize, 2000));
  const double c0 = optimizer_->Cost(ins, none);
  const double c1 = optimizer_->Cost(ins, one);
  const double c2 = optimizer_->Cost(ins, two);
  EXPECT_LT(c0, c1);
  EXPECT_LT(c1, c2);
}

TEST_F(OptimizerTest, CompressedIndexCostsMoreToMaintain) {
  const Statement ins = Parse("INSERT INTO lineitem VALUES 1000 ROWS");
  Configuration plain, compressed;
  plain.Add(Est(Idx({"l_shipdate"}), 30 * kPageSize, 2000));
  compressed.Add(
      Est(Idx({"l_shipdate"}, {}, CompressionKind::kPage), 30 * kPageSize, 2000));
  // Same size on purpose: isolates the alpha CPU term.
  EXPECT_GT(optimizer_->Cost(ins, compressed), optimizer_->Cost(ins, plain));
}

TEST_F(OptimizerTest, AlphaOrdering) {
  const CostModelParams params;
  EXPECT_GT(params.Alpha(CompressionKind::kPage), params.Alpha(CompressionKind::kRow));
  EXPECT_EQ(params.Alpha(CompressionKind::kNone), 0.0);
  EXPECT_GT(params.Beta(CompressionKind::kPage), params.Beta(CompressionKind::kRow));
  EXPECT_EQ(params.Beta(CompressionKind::kNone), 0.0);
}

TEST_F(OptimizerTest, ClusteredIndexReplacesHeap) {
  const Statement q = Parse("SELECT SUM(l_quantity) FROM lineitem");
  IndexDef clustered = Idx({"l_shipdate"});
  clustered.clustered = true;
  clustered.compression = CompressionKind::kPage;
  Configuration config;
  config.Add(Est(clustered, 30 * kPageSize, 2000));  // compressed: small
  const PlanCost plan = optimizer_->CostWithPlan(q, config);
  EXPECT_EQ(plan.access_path.find("heap scan"), std::string::npos);
}

TEST_F(OptimizerTest, JoinPrefersCheaperStrategy) {
  const Statement q = Parse(
      "SELECT SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey "
      "WHERE l_shipdate >= DATE '1999-06-01'");
  // With a part index keyed on p_partkey, index-NL is available.
  IndexDef dim_idx;
  dim_idx.object = "part";
  dim_idx.key_columns = {"p_partkey"};
  Configuration with_idx;
  with_idx.Add(Est(dim_idx, 5 * kPageSize, 400));
  const Configuration without;
  // Either way the query must cost something sane, and the index version
  // must not be worse (optimizer picks min).
  EXPECT_LE(optimizer_->Cost(q, with_idx), optimizer_->Cost(q, without) + 1e-9);
}

TEST_F(OptimizerTest, WorkloadCostWeightsStatements) {
  Workload w;
  w.statements.push_back(Parse("SELECT SUM(l_quantity) FROM lineitem"));
  w.statements[0].weight = 3.0;
  const Configuration empty;
  EXPECT_DOUBLE_EQ(optimizer_->WorkloadCost(w, empty),
                   3.0 * optimizer_->Cost(w.statements[0], empty));
}

TEST_F(OptimizerTest, ConfigurationBookkeeping) {
  Configuration c;
  c.Add(Est(Idx({"l_shipdate"}), 10 * kPageSize, 100));
  EXPECT_TRUE(c.Contains(Idx({"l_shipdate"}).Signature()));
  EXPECT_FALSE(c.Contains(Idx({"l_partkey"}).Signature()));
  EXPECT_TRUE(c.Remove(Idx({"l_shipdate"}).Signature()));
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.Remove(Idx({"l_shipdate"}).Signature()));

  // The recorded signatures follow their indexes through Adds and Removes.
  const IndexDef a = Idx({"l_shipdate"});
  const IndexDef b = Idx({"l_partkey"}, {"l_quantity"});
  const IndexDef a_row = Idx({"l_shipdate"}, {}, CompressionKind::kRow);
  const IndexDef d = Idx({"l_orderkey"}, {}, CompressionKind::kPage);
  c.Add(Est(a, kPageSize, 10));
  c.Add(Est(b, kPageSize, 10));
  c.Add(Est(a_row, kPageSize, 10));
  EXPECT_TRUE(c.Remove(b.Signature()));
  c.Add(Est(d, kPageSize, 10));
  EXPECT_TRUE(c.Remove(a.Signature()));
  c.Add(Est(a, kPageSize, 10));
  ASSERT_EQ(c.size(), 3u);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.signature(i), c.indexes()[i].def.Signature()) << i;
  }
  EXPECT_EQ(c.signature(0), a_row.Signature());
  EXPECT_EQ(c.signature(1), d.Signature());
  EXPECT_EQ(c.signature(2), a.Signature());
  EXPECT_FALSE(c.Contains(b.Signature()));
}

using OptimizerDeathTest = OptimizerTest;

TEST_F(OptimizerDeathTest, DuplicateAddCheckFails) {
  Configuration c;
  c.Add(Est(Idx({"l_shipdate"}), kPageSize, 10));
  // A compressed variant is a different index...
  c.Add(Est(Idx({"l_shipdate"}, {}, CompressionKind::kRow), kPageSize, 10));
  // ...the same index twice is not.
  EXPECT_DEATH(c.Add(Est(Idx({"l_shipdate"}), 2 * kPageSize, 20)),
               "duplicate index");
}

}  // namespace
}  // namespace capd
