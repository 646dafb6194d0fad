// Tests for the per-statement what-if cost cache: cached WorkloadCost and
// the greedy trials' delta path must match the uncached optimizer to the
// bit on randomized configurations, and the relevance gates must mirror
// the optimizer's own usability rules.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "optimizer/cost_cache.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class WhatIfCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 6000;
    tpch::Build(&db_, opt);
    workload_ = tpch::MakeWorkload(db_, opt);
    optimizer_ = std::make_unique<WhatIfOptimizer>(db_, CostModelParams{});
  }

  static PhysicalIndexEstimate Est(std::string table,
                                   std::vector<std::string> keys,
                                   CompressionKind kind, bool clustered,
                                   double bytes) {
    PhysicalIndexEstimate est;
    est.def.object = std::move(table);
    est.def.key_columns = std::move(keys);
    est.def.compression = kind;
    est.def.clustered = clustered;
    est.bytes = bytes;
    est.tuples = bytes / 64.0;
    return est;
  }

  // A deterministic pool of index estimates spanning every workload table,
  // several widths and compressions, plus a clustered index.
  std::vector<PhysicalIndexEstimate> CandidatePool() const {
    std::vector<PhysicalIndexEstimate> pool;
    pool.push_back(Est("lineitem", {"l_shipdate"}, CompressionKind::kRow,
                       false, 240000));
    pool.push_back(Est("lineitem", {"l_shipdate", "l_extendedprice"},
                       CompressionKind::kPage, false, 310000));
    pool.push_back(Est("lineitem", {"l_partkey", "l_extendedprice"},
                       CompressionKind::kNone, false, 380000));
    pool.push_back(Est("lineitem", {"l_orderkey", "l_quantity"},
                       CompressionKind::kRow, false, 300000));
    pool.push_back(
        Est("lineitem", {"l_shipdate"}, CompressionKind::kNone, true, 900000));
    pool.push_back(
        Est("orders", {"o_orderdate"}, CompressionKind::kRow, false, 90000));
    pool.push_back(
        Est("part", {"p_partkey"}, CompressionKind::kNone, false, 40000));
    pool.push_back(
        Est("part", {"p_brand", "p_type"}, CompressionKind::kPage, false,
            45000));
    pool.push_back(Est("supplier", {"s_acctbal", "s_name"},
                       CompressionKind::kRow, false, 20000));
    pool.push_back(Est("customer", {"c_acctbal", "c_nationkey"},
                       CompressionKind::kNone, false, 30000));
    return pool;
  }

  // Random subset of the pool (unique signatures), in random order.
  Configuration RandomConfig(const std::vector<PhysicalIndexEstimate>& pool,
                             Random* rng) const {
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng->Next(i)]);
    }
    const size_t n = rng->Next(pool.size() + 1);
    Configuration config;
    for (size_t i = 0; i < n; ++i) config.Add(pool[order[i]]);
    return config;
  }

  size_t StatementIndex(const std::string& id) const {
    for (size_t i = 0; i < workload_.statements.size(); ++i) {
      if (workload_.statements[i].id == id) return i;
    }
    ADD_FAILURE() << "no statement " << id;
    return 0;
  }

  Database db_;
  Workload workload_;
  std::unique_ptr<WhatIfOptimizer> optimizer_;
};

TEST_F(WhatIfCacheTest, CachedMatchesUncachedOnRandomConfigs) {
  StatementCostCache cache(db_, *optimizer_, workload_);
  const std::vector<PhysicalIndexEstimate> pool = CandidatePool();
  Random rng(20260729);
  for (int trial = 0; trial < 60; ++trial) {
    const Configuration config = RandomConfig(pool, &rng);
    const double cached = cache.WorkloadCost(config);
    const double direct = optimizer_->WorkloadCost(workload_, config);
    // memcmp, not ==: the criterion is bit-identical doubles.
    EXPECT_EQ(std::memcmp(&cached, &direct, sizeof(double)), 0)
        << "trial " << trial << " config " << config.ToString();
    // Per statement, every costing entry point agrees to the bit: costing a
    // prepared statement and skipping the access-path string must not
    // change the number.
    for (const Statement& stmt : workload_.statements) {
      const double cost = optimizer_->Cost(stmt, config);
      const double prepared =
          optimizer_->Cost(optimizer_->Prepare(stmt), config);
      const double planned = optimizer_->CostWithPlan(stmt, config).total();
      EXPECT_EQ(std::memcmp(&cost, &prepared, sizeof(double)), 0)
          << "trial " << trial << " " << stmt.id;
      EXPECT_EQ(std::memcmp(&cost, &planned, sizeof(double)), 0)
          << "trial " << trial << " " << stmt.id;
    }
    // The delta path: every one-entry extension costs the uncached double
    // to the bit and, on fresh caches, advances hits and misses exactly as
    // costing the whole extended configuration does.
    StatementCostCache delta(db_, *optimizer_, workload_);
    StatementCostCache whole(db_, *optimizer_, workload_);
    delta.WorkloadCost(config);
    whole.WorkloadCost(config);
    const StatementCostCache::Step step = cache.BeginStep(config);
    const StatementCostCache::Step fresh_step = delta.BeginStep(config);
    for (const PhysicalIndexEstimate& entry : pool) {
      const std::string signature = entry.def.Signature();
      if (config.Contains(signature)) continue;
      Configuration extended = config;
      extended.Add(entry);
      const double with = cache.WorkloadCostWith(step, entry, signature);
      const double reference = optimizer_->WorkloadCost(workload_, extended);
      EXPECT_EQ(std::memcmp(&with, &reference, sizeof(double)), 0)
          << "trial " << trial << " + " << entry.def.ToString();
      delta.WorkloadCostWith(fresh_step, entry, signature);
      whole.WorkloadCost(extended);
      EXPECT_EQ(delta.hits(), whole.hits()) << "trial " << trial;
      EXPECT_EQ(delta.misses(), whole.misses()) << "trial " << trial;
    }
  }
  // The random-order configs revisit relevant subsequences, so the cache
  // must have produced hits — and every one of them matched bitwise above.
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(WhatIfCacheTest, RepeatedQueryIsServedFromCache) {
  StatementCostCache cache(db_, *optimizer_, workload_);
  const std::vector<PhysicalIndexEstimate> pool = CandidatePool();
  Configuration config;
  config.Add(pool[0]);
  config.Add(pool[5]);

  const double first = cache.WorkloadCost(config);
  const uint64_t misses_after_first = cache.misses();
  EXPECT_EQ(misses_after_first, workload_.statements.size());
  EXPECT_EQ(cache.hits(), 0u);

  const double second = cache.WorkloadCost(config);
  EXPECT_EQ(std::memcmp(&first, &second, sizeof(double)), 0);
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_EQ(cache.hits(), workload_.statements.size());
}

TEST_F(WhatIfCacheTest, IrrelevantIndexReusesStatementCosts) {
  StatementCostCache cache(db_, *optimizer_, workload_);
  const std::vector<PhysicalIndexEstimate> pool = CandidatePool();
  Configuration config;
  config.Add(pool[0]);  // lineitem(l_shipdate)
  cache.WorkloadCost(config);
  const uint64_t misses_before = cache.misses();

  // Adding a supplier-only index can only affect statements that touch
  // supplier (Q2, Q5, Q11 in this workload) — everything else must hit.
  Configuration extended = config;
  extended.Add(pool[8]);
  const double cached = cache.WorkloadCost(extended);
  const double direct = optimizer_->WorkloadCost(workload_, extended);
  EXPECT_EQ(std::memcmp(&cached, &direct, sizeof(double)), 0);
  EXPECT_LT(cache.misses() - misses_before, workload_.statements.size() / 2);
}

TEST_F(WhatIfCacheTest, RelevanceMirrorsOptimizerGates) {
  StatementCostCache cache(db_, *optimizer_, workload_);
  const std::vector<PhysicalIndexEstimate> pool = CandidatePool();
  // Q1 reads lineitem only (l_returnflag/l_linestatus/l_quantity/
  // l_extendedprice/l_shipdate), no joins.
  const size_t q1 = StatementIndex("Q1");
  // Seekable: predicate on l_shipdate matches the leading key.
  EXPECT_TRUE(cache.Relevant(q1, pool[0].def));
  // Neither seekable nor covering for Q1: keyed on l_partkey.
  EXPECT_FALSE(cache.Relevant(q1, pool[2].def));
  // Clustered indexes replace the heap: always relevant on their table.
  EXPECT_TRUE(cache.Relevant(q1, pool[4].def));
  // Other tables never matter to Q1.
  EXPECT_FALSE(cache.Relevant(q1, pool[6].def));
  EXPECT_FALSE(cache.Relevant(q1, pool[8].def));

  // Q8 joins part on p_partkey: the part PK index serves index-NL.
  const size_t q8 = StatementIndex("Q8");
  EXPECT_TRUE(cache.Relevant(q8, pool[6].def));

  // A bulk INSERT maintains every index on the loaded table and nothing
  // else.
  const size_t bulk = StatementIndex("BULK_LINEITEM");
  EXPECT_TRUE(cache.Relevant(bulk, pool[2].def));
  EXPECT_TRUE(cache.Relevant(bulk, pool[4].def));
  EXPECT_FALSE(cache.Relevant(bulk, pool[6].def));
}

}  // namespace
}  // namespace capd
