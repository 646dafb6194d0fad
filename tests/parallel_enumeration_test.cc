// Determinism tests for the parallel advisor search loop: Advisor::Tune
// with enumeration fanned across 2/4/8 threads — and with the
// per-statement cost cache on or off — must reproduce the serial,
// uncached result to the bit (same guarantee the estimation engine gives).
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class ParallelEnumerationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 4000;
    tpch::Build(&db_, opt);
    workload_ = tpch::MakeWorkload(db_, opt);
  }

  // Fresh stack per run (samples re-drawn; per-key seeding makes them
  // identical), mirroring bench_common's wiring.
  AdvisorResult Tune(AdvisorOptions options, double budget_frac) {
    SampleManager samples(4242);
    MVRegistry mvs(db_, &samples);
    WhatIfOptimizer optimizer(db_, CostModelParams{});
    optimizer.set_mv_matcher(&mvs);
    SizeEstimator estimator(db_, &mvs, ErrorModel(), options.size_options);
    Advisor advisor(db_, optimizer, &estimator, &mvs, options);
    return advisor.Tune(workload_,
                        budget_frac * static_cast<double>(db_.BaseDataBytes()));
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

  Database db_;
  Workload workload_;
};

TEST_F(ParallelEnumerationTest, CostCacheDoesNotChangeTheResult) {
  AdvisorOptions uncached = AdvisorOptions::DTAcBoth();
  uncached.cost_cache = false;
  AdvisorOptions cached = AdvisorOptions::DTAcBoth();
  cached.cost_cache = true;
  for (double budget : {0.05, 0.25}) {
    const AdvisorResult base = Tune(uncached, budget);
    const AdvisorResult r = Tune(cached, budget);
    ExpectBitIdentical(base, r);
    EXPECT_GT(r.stmt_costs_cached, 0u);
    // Same logical what-if traffic either way; the cache only changes how
    // many costings actually ran the optimizer.
    EXPECT_EQ(base.what_if_calls, r.what_if_calls);
    EXPECT_LT(r.stmt_costs_computed, base.stmt_costs_computed);
  }
}

TEST_F(ParallelEnumerationTest, ParallelEnumerateBitIdenticalToSerial) {
  AdvisorOptions serial = AdvisorOptions::DTAcBoth();
  serial.cost_cache = false;
  const AdvisorResult base = Tune(serial, 0.08);

  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    for (bool cache : {false, true}) {
      AdvisorOptions parallel = AdvisorOptions::DTAcBoth();
      parallel.cost_cache = cache;
      parallel.pool = &pool;
      ExpectBitIdentical(base, Tune(parallel, 0.08));
    }
  }
}

// The cost cache's counters are part of the report, so they must not depend
// on the thread count either: two threads missing on the same key at once
// count one miss and one hit, as the serial run would.
TEST_F(ParallelEnumerationTest, CostCacheCountersMatchSerial) {
  AdvisorOptions serial = AdvisorOptions::DTAcBoth();
  serial.cost_cache = true;
  const AdvisorResult base = Tune(serial, 0.08);
  ASSERT_GT(base.stmt_costs_computed, 0u);
  ASSERT_GT(base.stmt_costs_cached, 0u);

  for (int threads : {4, 4, 8}) {
    ThreadPool pool(threads);
    AdvisorOptions parallel = serial;
    parallel.pool = &pool;
    const AdvisorResult r = Tune(parallel, 0.08);
    EXPECT_EQ(r.stmt_costs_computed, base.stmt_costs_computed) << threads;
    EXPECT_EQ(r.stmt_costs_cached, base.stmt_costs_cached) << threads;
  }
}

TEST_F(ParallelEnumerationTest, DensityGreedyParallelMatchesSerial) {
  AdvisorOptions serial = AdvisorOptions::DTAcBoth();
  serial.enumeration = EnumerationMode::kDensityGreedy;
  serial.cost_cache = false;
  const AdvisorResult base = Tune(serial, 0.05);

  ThreadPool pool(4);
  AdvisorOptions parallel = serial;
  parallel.cost_cache = true;
  parallel.pool = &pool;
  ExpectBitIdentical(base, Tune(parallel, 0.05));
}

TEST_F(ParallelEnumerationTest, HardwareConcurrencyPoolWorks) {
  ThreadPool pool;  // hardware concurrency
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  options.pool = &pool;
  const AdvisorResult r = Tune(options, 0.10);
  EXPECT_GT(r.what_if_calls, 0u);
}

}  // namespace
}  // namespace capd
