// Tests for the physical-design tool: candidate generation, skyline
// selection, enumeration with backtracking, and the DTA/DTAc presets.
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "engine/advisor_engine.h"
#include "workloads/registry.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 3000;
    tpch::Build(&db_, opt);
    workload_ = tpch::MakeWorkload(db_, opt);
    samples_ = std::make_unique<SampleManager>(99);
    source_ = std::make_unique<TableSampleSource>(db_, samples_.get());
    optimizer_ = std::make_unique<WhatIfOptimizer>(db_, CostModelParams{});
    sizes_ = std::make_unique<SizeEstimator>(db_, source_.get(), ErrorModel(),
                                             SizeEstimationOptions{});
  }

  AdvisorResult Run(AdvisorOptions options, double budget_frac) {
    Advisor advisor(db_, *optimizer_, sizes_.get(), nullptr, options);
    return advisor.Tune(workload_,
                        budget_frac * static_cast<double>(db_.BaseDataBytes()));
  }

  Database db_;
  Workload workload_;
  std::unique_ptr<SampleManager> samples_;
  std::unique_ptr<TableSampleSource> source_;
  std::unique_ptr<WhatIfOptimizer> optimizer_;
  std::unique_ptr<SizeEstimator> sizes_;
};

TEST_F(AdvisorTest, CandidatesGeneratedForQueries) {
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  CandidateGenerator generator(db_, *optimizer_, nullptr, options);
  const std::vector<IndexDef> candidates =
      generator.GenerateForWorkload(workload_);
  EXPECT_GT(candidates.size(), 50u);
  // Variants present: both structures (kNone) and compressed versions.
  size_t compressed = 0;
  for (const IndexDef& d : candidates) {
    if (d.compression != CompressionKind::kNone) ++compressed;
  }
  EXPECT_GT(compressed, candidates.size() / 2);
}

TEST_F(AdvisorTest, DtaGeneratesNoCompressedCandidates) {
  AdvisorOptions options = AdvisorOptions::DTA();
  CandidateGenerator generator(db_, *optimizer_, nullptr, options);
  for (const IndexDef& d : generator.GenerateForWorkload(workload_)) {
    EXPECT_EQ(d.compression, CompressionKind::kNone);
  }
}

TEST_F(AdvisorTest, TuningImprovesWorkload) {
  const AdvisorResult result = Run(AdvisorOptions::DTAcBoth(), 0.5);
  EXPECT_GT(result.improvement_percent(), 10.0);
  EXPECT_GT(result.config.size(), 0u);
}

TEST_F(AdvisorTest, BudgetRespected) {
  for (double frac : {0.05, 0.2, 0.6}) {
    const double budget = frac * static_cast<double>(db_.BaseDataBytes());
    AdvisorOptions options = AdvisorOptions::DTAcBoth();
    Advisor advisor(db_, *optimizer_, sizes_.get(), nullptr, options);
    const AdvisorResult result = advisor.Tune(workload_, budget);
    EXPECT_LE(result.charged_bytes, budget + 1.0) << "frac=" << frac;
  }
}

TEST_F(AdvisorTest, LargerBudgetNeverHurts) {
  const AdvisorResult tight = Run(AdvisorOptions::DTAcBoth(), 0.05);
  const AdvisorResult loose = Run(AdvisorOptions::DTAcBoth(), 0.8);
  EXPECT_GE(loose.improvement_percent(), tight.improvement_percent() - 1.0);
}

TEST_F(AdvisorTest, DTAcBeatsDtaUnderTightBudget) {
  const AdvisorResult dta = Run(AdvisorOptions::DTA(), 0.08);
  const AdvisorResult dtac = Run(AdvisorOptions::DTAcBoth(), 0.08);
  EXPECT_GE(dtac.improvement_percent(), dta.improvement_percent() - 0.5);
}

TEST_F(AdvisorTest, CompressedIndexesAppearInTightBudgets) {
  const AdvisorResult result = Run(AdvisorOptions::DTAcBoth(), 0.06);
  size_t compressed = 0;
  for (const PhysicalIndexEstimate& idx : result.config.indexes()) {
    if (idx.def.compression != CompressionKind::kNone) ++compressed;
  }
  EXPECT_GT(compressed, 0u);
}

TEST_F(AdvisorTest, InsertHeavyWorkloadGetsFewerIndexes) {
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  Advisor advisor(db_, *optimizer_, sizes_.get(), nullptr, options);
  const double budget = 0.5 * static_cast<double>(db_.BaseDataBytes());
  const AdvisorResult select_heavy =
      advisor.Tune(workload_.WithInsertWeight(0.1), budget);
  const AdvisorResult insert_heavy =
      advisor.Tune(workload_.WithInsertWeight(50.0), budget);
  EXPECT_LE(insert_heavy.config.size(), select_heavy.config.size());
}

TEST_F(AdvisorTest, SkylineKeepsMoreCandidatesThanTopK) {
  AdvisorResult topk = Run(AdvisorOptions::DTAcNone(), 0.3);
  AdvisorResult skyline = Run(AdvisorOptions::DTAcSkyline(), 0.3);
  EXPECT_GE(skyline.num_candidates, topk.num_candidates);
}

TEST_F(AdvisorTest, EstimationBookkeepingFilled) {
  const AdvisorResult result = Run(AdvisorOptions::DTAcBoth(), 0.3);
  EXPECT_GT(result.estimation_cost_pages, 0.0);
  EXPECT_GT(result.chosen_f, 0.0);
  EXPECT_GT(result.what_if_calls, 100u);
  EXPECT_GT(result.num_sampled + result.num_deduced, 0u);
}

TEST_F(AdvisorTest, ChargedBytesDiscountsClusteredHeap) {
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  Advisor advisor(db_, *optimizer_, sizes_.get(), nullptr, options);
  IndexDef clustered;
  clustered.object = "lineitem";
  clustered.key_columns = {"l_shipdate"};
  clustered.clustered = true;
  clustered.compression = CompressionKind::kPage;
  PhysicalIndexEstimate est;
  est.def = clustered;
  est.bytes = 0.5 * static_cast<double>(db_.table("lineitem").HeapBytes());
  est.tuples = 3000;
  Configuration config;
  config.Add(est);
  // A compressed clustered index smaller than the heap charges negative.
  EXPECT_LT(advisor.ChargedBytes(config), 0.0);
}

TEST_F(AdvisorTest, StagedBaselineNoBetterThanIntegrated) {
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  Advisor advisor(db_, *optimizer_, sizes_.get(), nullptr, options);
  const double budget = 0.25 * static_cast<double>(db_.BaseDataBytes());
  const AdvisorResult integrated = advisor.Tune(workload_, budget);
  const AdvisorResult staged =
      advisor.TuneStagedBaseline(workload_, budget, CompressionKind::kPage);
  EXPECT_GE(integrated.improvement_percent(),
            staged.improvement_percent() - 1.0);
}

TEST_F(AdvisorTest, MergingProducesWiderIndexes) {
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  CandidateGenerator generator(db_, *optimizer_, nullptr, options);
  std::vector<IndexDef> selected;
  IndexDef a, b;
  a.object = "lineitem";
  a.key_columns = {"l_shipdate"};
  a.include_columns = {"l_extendedprice"};
  b.object = "lineitem";
  b.key_columns = {"l_shipdate", "l_shipmode"};
  b.include_columns = {"l_quantity"};
  selected = {a, b};
  const std::vector<IndexDef> merged = generator.MergeCandidates(selected);
  ASSERT_GT(merged.size(), 0u);
  const IndexDef& m = merged[0];
  EXPECT_EQ(m.key_columns, b.key_columns);  // longer key wins
  const auto stored = m.StoredColumns(db_.table("lineitem").schema());
  EXPECT_NE(std::find(stored.begin(), stored.end(), "l_extendedprice"),
            stored.end());
  EXPECT_NE(std::find(stored.begin(), stored.end(), "l_quantity"), stored.end());
}

// A merged candidate the first batch already sized keeps that first
// estimate: selection charged and costed it, and the statement cost cache
// keeps those costings. So the cached search and the uncached one
// (cost_cache = false) price every candidate alike and agree to the bit,
// with the same logical what-if traffic; the cache only serves some of the
// costings instead of running the optimizer.
TEST(AdvisorCostCacheTest, CachedSearchMatchesUncachedSearch) {
  for (const char* name : {"tpch", "tpcds-lite"}) {
    workloads::WorkloadSpec spec;
    spec.name = name;
    spec.rows = 2000;
    workloads::BuiltWorkload built;
    std::string error;
    ASSERT_TRUE(workloads::Build(spec, &built, &error)) << error;
    AdvisorEngine engine(*built.db);
    for (const char* strategy : {"dtac-topk", "dtac-both"}) {
      const AdvisorOptions cached =
          StrategyRegistry::Global().Find(strategy)->MakeOptions();
      AdvisorOptions uncached = cached;
      uncached.cost_cache = false;
      for (const double fraction : {0.05, 0.10, 0.20, 0.30}) {
        SCOPED_TRACE(std::string(name) + " " + strategy + " " +
                     std::to_string(fraction));
        const double budget =
            fraction * static_cast<double>(built.db->BaseDataBytes());
        const AdvisorResult a =
            engine.TuneWithOptions(built.workload, budget, cached);
        const AdvisorResult b =
            engine.TuneWithOptions(built.workload, budget, uncached);
        EXPECT_EQ(
            std::memcmp(&a.initial_cost, &b.initial_cost, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&a.final_cost, &b.final_cost, sizeof(double)),
                  0);
        EXPECT_EQ(
            std::memcmp(&a.charged_bytes, &b.charged_bytes, sizeof(double)),
            0);
        EXPECT_EQ(a.what_if_calls, b.what_if_calls);
        EXPECT_GT(a.stmt_costs_cached, 0u);
        EXPECT_LT(a.stmt_costs_computed, b.stmt_costs_computed);
        ASSERT_EQ(a.config.size(), b.config.size());
        for (size_t i = 0; i < a.config.size(); ++i) {
          const PhysicalIndexEstimate& x = a.config.indexes()[i];
          const PhysicalIndexEstimate& y = b.config.indexes()[i];
          EXPECT_EQ(x.def.Signature(), y.def.Signature());
          EXPECT_EQ(std::memcmp(&x.bytes, &y.bytes, sizeof(double)), 0);
          EXPECT_EQ(std::memcmp(&x.tuples, &y.tuples, sizeof(double)), 0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace capd
