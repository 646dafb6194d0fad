// Determinism and invariant tests for the per-query candidate selection
// phase (and the staged baseline's stage 2): the cost cache on must
// reproduce the uncached selection and tune to the bit; the skyline must be
// mutually non-dominated in (budget charge, cost); top-k must be a prefix
// of the cost-sorted improving candidates; and the staged baseline must
// never beat DTAc on total workload cost.
#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class CandidateSelectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 3000;
    tpch::Build(&db_, opt);
    workload_ = tpch::MakeWorkload(db_, opt);
    samples_ = std::make_unique<SampleManager>(4242);
    mvs_ = std::make_unique<MVRegistry>(db_, samples_.get());
    optimizer_ = std::make_unique<WhatIfOptimizer>(db_, CostModelParams{});
    optimizer_->set_mv_matcher(mvs_.get());

    // One candidate pool + size map shared by every selection run: the
    // inputs are fixed, only the cache wiring varies.
    const AdvisorOptions options = AdvisorOptions::DTAcBoth();
    estimator_ = std::make_unique<SizeEstimator>(db_, mvs_.get(), ErrorModel(),
                                                 options.size_options);
    Advisor seed(db_, *optimizer_, estimator_.get(), mvs_.get(), options);
    CandidateGenerator generator(db_, *optimizer_, mvs_.get(), options);
    candidates_ = generator.GenerateForWorkload(workload_);
    sizes_ = seed.EstimateSizes(candidates_, nullptr);
    ASSERT_GT(candidates_.size(), 0u);
  }

  std::vector<IndexDef> Select(const Workload& w, AdvisorOptions options,
                               bool with_cache) {
    Advisor advisor(db_, *optimizer_, estimator_.get(), mvs_.get(), options);
    CandidateIds ids(*optimizer_, w);
    for (const auto& [signature, est] : sizes_) ids.Intern(signature, est);
    std::unique_ptr<StatementCostCache> cache;
    if (with_cache) cache = std::make_unique<StatementCostCache>(ids);
    const std::vector<CandidateIds::Id> chosen =
        advisor.SelectCandidates(candidates_, ids, cache.get(), nullptr);
    std::vector<IndexDef> selected;
    for (const CandidateIds::Id id : chosen) {
      selected.push_back(ids.estimate(id).def);
    }
    return selected;
  }

  // Fresh stack per run, mirroring bench_common's wiring (per-key sample
  // seeding makes independently drawn samples identical).
  AdvisorResult Tune(AdvisorOptions options, double budget_frac,
                     bool staged = false) {
    SampleManager samples(4242);
    MVRegistry mvs(db_, &samples);
    WhatIfOptimizer optimizer(db_, CostModelParams{});
    optimizer.set_mv_matcher(&mvs);
    SizeEstimator estimator(db_, &mvs, ErrorModel(), options.size_options);
    Advisor advisor(db_, optimizer, &estimator, &mvs, options);
    const double budget =
        budget_frac * static_cast<double>(db_.BaseDataBytes());
    return staged ? advisor.TuneStagedBaseline(workload_, budget,
                                               CompressionKind::kPage)
                  : advisor.Tune(workload_, budget);
  }

  static void ExpectBitIdentical(const AdvisorResult& a,
                                 const AdvisorResult& b) {
    // memcmp, not ==: the criterion is bit-identical doubles.
    EXPECT_EQ(std::memcmp(&a.initial_cost, &b.initial_cost, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&a.final_cost, &b.final_cost, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&a.charged_bytes, &b.charged_bytes, sizeof(double)), 0);
    ASSERT_EQ(a.config.size(), b.config.size());
    const auto& ia = a.config.indexes();
    const auto& ib = b.config.indexes();
    for (size_t i = 0; i < ia.size(); ++i) {
      EXPECT_EQ(ia[i].def.Signature(), ib[i].def.Signature()) << i;
      EXPECT_EQ(std::memcmp(&ia[i].bytes, &ib[i].bytes, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&ia[i].tuples, &ib[i].tuples, sizeof(double)), 0);
    }
  }

  // Cost and budget charge of one single-index configuration for `stmt`.
  void CostAndCharge(const Statement& stmt, const IndexDef& def, double* cost,
                     double* charge) {
    Advisor advisor(db_, *optimizer_, estimator_.get(), mvs_.get(),
                    AdvisorOptions::DTAcBoth());
    Configuration config;
    config.Add(sizes_.at(def.Signature()));
    *cost = optimizer_->Cost(stmt, config);
    *charge = advisor.ChargedBytes(config);
  }

  Database db_;
  Workload workload_;
  std::unique_ptr<SampleManager> samples_;
  std::unique_ptr<MVRegistry> mvs_;
  std::unique_ptr<WhatIfOptimizer> optimizer_;
  std::unique_ptr<SizeEstimator> estimator_;
  std::vector<IndexDef> candidates_;
  std::map<std::string, PhysicalIndexEstimate> sizes_;
};

TEST_F(CandidateSelectionTest, CachedSelectionMatchesUncached) {
  for (CandidateSelectionMode mode :
       {CandidateSelectionMode::kSkyline, CandidateSelectionMode::kTopK}) {
    AdvisorOptions options = AdvisorOptions::DTAcBoth();
    options.selection = mode;
    const std::vector<IndexDef> base = Select(workload_, options, false);
    EXPECT_GT(base.size(), 0u);
    const std::vector<IndexDef> got = Select(workload_, options, true);
    ASSERT_EQ(base.size(), got.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].Signature(), got[i].Signature()) << i;
    }
  }
}

TEST_F(CandidateSelectionTest, SkylineEntriesAreMutuallyNonDominated) {
  AdvisorOptions options = AdvisorOptions::DTAcSkyline();
  int checked_queries = 0;
  for (const Statement& stmt : workload_.statements) {
    if (stmt.type != StatementType::kSelect) continue;
    if (checked_queries >= 6) break;  // a spread of queries is enough
    Workload single;
    single.statements.push_back(stmt);
    const std::vector<IndexDef> selected = Select(single, options, false);
    if (selected.empty()) continue;
    ++checked_queries;

    const double base_cost = optimizer_->Cost(stmt, Configuration());
    std::vector<double> costs(selected.size());
    std::vector<double> charges(selected.size());
    for (size_t i = 0; i < selected.size(); ++i) {
      CostAndCharge(stmt, selected[i], &costs[i], &charges[i]);
      EXPECT_LT(costs[i], base_cost) << selected[i].ToString();
    }
    for (size_t i = 0; i < selected.size(); ++i) {
      for (size_t j = 0; j < selected.size(); ++j) {
        if (i == j) continue;
        const bool better_or_equal =
            costs[j] <= costs[i] && charges[j] <= charges[i];
        const bool strictly_better =
            costs[j] < costs[i] || charges[j] < charges[i];
        EXPECT_FALSE(better_or_equal && strictly_better)
            << selected[i].ToString() << " dominated by "
            << selected[j].ToString();
      }
    }
  }
  EXPECT_GT(checked_queries, 0);
}

TEST_F(CandidateSelectionTest, TopKIsAPrefixOfTheCostSortedCandidates) {
  const AdvisorOptions options = AdvisorOptions::DTAcNone();
  int checked_queries = 0;
  for (const Statement& stmt : workload_.statements) {
    if (stmt.type != StatementType::kSelect) continue;
    if (checked_queries >= 6) break;
    Workload single;
    single.statements.push_back(stmt);
    const std::vector<IndexDef> selected = Select(single, options, false);

    // Every candidate improving on the base cost, with its cost.
    const double base_cost = optimizer_->Cost(stmt, Configuration());
    std::vector<double> improving;
    for (const IndexDef& def : candidates_) {
      double cost, charge;
      CostAndCharge(stmt, def, &cost, &charge);
      if (cost < base_cost) improving.push_back(cost);
    }
    std::sort(improving.begin(), improving.end());
    ASSERT_EQ(selected.size(), std::min(kTopK, improving.size()));
    if (selected.empty()) continue;
    ++checked_queries;

    // The selected costs must be exactly the k smallest improving costs
    // (ties may swap members, but the cost multiset prefix is unique).
    double worst_selected = -std::numeric_limits<double>::infinity();
    for (const IndexDef& def : selected) {
      double cost, charge;
      CostAndCharge(stmt, def, &cost, &charge);
      worst_selected = std::max(worst_selected, cost);
    }
    EXPECT_LE(worst_selected, improving[selected.size() - 1] + 1e-12);
  }
  EXPECT_GT(checked_queries, 0);
}

TEST_F(CandidateSelectionTest, StagedBaselineNeverBeatsDTAc) {
  for (double budget : {0.10, 0.30}) {
    const AdvisorResult dtac = Tune(AdvisorOptions::DTAcBoth(), budget);
    const AdvisorResult staged =
        Tune(AdvisorOptions::DTAcBoth(), budget, /*staged=*/true);
    // Lower cost is better: the compression-aware search sees everything
    // the staged pipeline can produce, so staging can at best tie.
    EXPECT_GE(staged.final_cost, dtac.final_cost - 1e-9) << budget;
  }
}

TEST_F(CandidateSelectionTest, CachedStagedBaselineMatchesUncached) {
  AdvisorOptions uncached = AdvisorOptions::DTAcNone();
  uncached.cost_cache = false;
  AdvisorOptions cached = uncached;
  cached.cost_cache = true;
  ExpectBitIdentical(Tune(uncached, 0.15, /*staged=*/true),
                     Tune(cached, 0.15, /*staged=*/true));
}

TEST_F(CandidateSelectionTest, CachedFullTuneMatchesUncached) {
  for (EnumerationMode mode :
       {EnumerationMode::kGreedy, EnumerationMode::kDensityGreedy}) {
    AdvisorOptions uncached = AdvisorOptions::DTAcBoth();
    uncached.enumeration = mode;
    uncached.cost_cache = false;
    AdvisorOptions cached = uncached;
    cached.cost_cache = true;
    const AdvisorResult r = Tune(cached, 0.12);
    ExpectBitIdentical(Tune(uncached, 0.12), r);
    // Selection costings flow through the cost cache and warm it for
    // enumeration.
    EXPECT_GT(r.stmt_costs_cached, 0u);
  }
}

}  // namespace
}  // namespace capd
