// Tests for candidate ids and the per-statement what-if cost cache: cached
// costs of random id configurations (swap-shaped ones included) and the
// greedy trials' delta path must match the uncached optimizer to the bit,
// on a plain pool and on one exercising every path an IndexUse
// precomputes (partial, BITMAP, index-NL and MV indexes). Relevance
// follows each candidate's use: an id marked irrelevant to a statement
// never changes its cost, and an MV index is relevant exactly where the
// matcher answers the SELECT or the INSERT maintains the view.
#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "mv/mv_registry.h"
#include "optimizer/cost_cache.h"
#include "query/sql_parser.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

using Id = CandidateIds::Id;

// memcmp, not ==: the criterion is bit-identical doubles.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

class WhatIfCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 6000;
    tpch::Build(&db_, opt);
    workload_ = tpch::MakeWorkload(db_, opt);
    optimizer_ = std::make_unique<WhatIfOptimizer>(db_, CostModelParams{});
    Intern(CandidatePool());
  }

  // Interns `pool` into fresh ids the way Tune does: through a sizes map
  // keyed by signature, so two candidates with one signature share a node
  // and an id.
  void Intern(const std::vector<PhysicalIndexEstimate>& pool) {
    pool_.clear();
    ids_ = std::make_unique<CandidateIds>(*optimizer_, workload_);
    sizes_.clear();
    for (const PhysicalIndexEstimate& est : pool) {
      const auto it = sizes_.emplace(est.def.Signature(), est).first;
      pool_.push_back(ids_->Intern(it->first, it->second));
    }
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
  // several widths and compressions, plus a clustered index. The
  // next-to-last entry is a compressed variant of the first; the last one
  // repeats the first one's signature.
  static std::vector<PhysicalIndexEstimate> CandidatePool() {
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
    pool.push_back(Est("lineitem", {"l_shipdate"}, CompressionKind::kPage,
                       false, 200000));
    pool.push_back(Est("lineitem", {"l_shipdate"}, CompressionKind::kRow,
                       false, 240000));
    return pool;
  }

  // The WHERE predicate of `sql`, a one-predicate query on `db_`.
  ColumnFilter Predicate(const std::string& sql) const {
    std::string error;
    const std::optional<Statement> stmt = ParseSql(sql, db_, &error);
    CAPD_CHECK(stmt.has_value()) << error;
    CAPD_CHECK(stmt->select.predicates.size() == 1u) << sql;
    return stmt->select.predicates.front();
  }

  // Registers an MV answering workload query `query_id` the way candidate
  // generation does (the predicates off its group-by columns pinned into
  // the view) and returns an index on it.
  PhysicalIndexEstimate MVIndexFor(const std::string& query_id,
                                   CompressionKind kind, double bytes) {
    const SelectQuery& q =
        workload_.statements[StatementIndex(query_id)].select;
    MVDef def;
    def.name = "mv_" + query_id;
    def.fact_table = q.table;
    def.joins = q.joins;
    def.group_by = q.group_by;
    def.aggregates = q.aggregates;
    for (const ColumnFilter& p : q.predicates) {
      if (std::find(q.group_by.begin(), q.group_by.end(), p.column) ==
          q.group_by.end()) {
        def.predicates.push_back(p);
      }
    }
    if (mvs_->Find(def.name) == nullptr) {
      mvs_->Register(def);
      mvs_->FullTuples(def.name);  // as size estimation does before costing
    }
    PhysicalIndexEstimate est = Est(def.name, def.group_by, kind, false, bytes);
    for (const AggExpr& a : def.aggregates) {
      est.def.include_columns.push_back(MVDef::AggColumnName(a));
    }
    est.def.include_columns.push_back(kMVCountColumn);
    return est;
  }

  // Interns a second pool, under an MV matcher, for the paths an IndexUse
  // precomputes:
  //   0  a partial index Q6, Q7, Q14 and Q15 subsume (l_shipdate in
  //      1995-96)
  //   1  a partial index no predicate subsumes (l_discount > 0.09)
  //   2  a BITMAP structure Q12 seeks by equality (l_shipmode)
  //   3  a BITMAP structure only range predicates touch (l_shipdate)
  //   4  part keyed on the join key p_partkey: an index-NL probe
  //   5  its PAGE variant
  //   6  a partial index keyed on p_partkey, which never probes a join
  //   7  an MV index answering Q7, maintained by BULK_LINEITEM
  //   8  its ROW variant
  //   9  an MV index answering Q8 (a join), maintained by BULK_LINEITEM
  //   10 a clustered orders index, maintained by BULK_ORDERS
  void UseSecondPool() {
    samples_ = std::make_unique<SampleManager>(88);
    mvs_ = std::make_unique<MVRegistry>(db_, samples_.get());
    optimizer_->set_mv_matcher(mvs_.get());
    std::vector<PhysicalIndexEstimate> pool;
    pool.push_back(Est("lineitem", {"l_shipdate"}, CompressionKind::kNone,
                       false, 120000));
    pool.back().def.include_columns = {"l_extendedprice", "l_discount",
                                       "l_quantity", "l_shipmode"};
    pool.back().def.filter =
        Predicate("SELECT l_shipdate FROM lineitem WHERE l_shipdate BETWEEN "
                  "DATE '1995-01-01' AND DATE '1996-12-31'");
    pool.push_back(Est("lineitem", {"l_partkey"}, CompressionKind::kRow,
                       false, 30000));
    pool.back().def.filter =
        Predicate("SELECT l_partkey FROM lineitem WHERE l_discount > 0.09");
    pool.push_back(Est("lineitem", {"l_shipmode"}, CompressionKind::kBitmap,
                       false, 9000));
    pool.back().def.include_columns = {"l_receiptdate"};
    pool.push_back(Est("lineitem", {"l_shipdate"}, CompressionKind::kBitmap,
                       false, 15000));
    pool.push_back(
        Est("part", {"p_partkey"}, CompressionKind::kNone, false, 40000));
    pool.back().def.include_columns = {"p_brand", "p_type"};
    pool.push_back(
        Est("part", {"p_partkey"}, CompressionKind::kPage, false, 25000));
    pool.back().def.include_columns = {"p_brand", "p_type"};
    pool.push_back(
        Est("part", {"p_partkey"}, CompressionKind::kNone, false, 12000));
    pool.back().def.include_columns = {"p_brand"};
    pool.back().def.filter =
        Predicate("SELECT p_brand FROM part WHERE p_size >= 20");
    pool.push_back(MVIndexFor("Q7", CompressionKind::kNone, 8192));
    pool.push_back(MVIndexFor("Q7", CompressionKind::kRow, 8192));
    pool.push_back(MVIndexFor("Q8", CompressionKind::kNone, 16384));
    pool.push_back(
        Est("orders", {"o_orderdate"}, CompressionKind::kRow, true, 70000));
    Intern(pool);
  }

  // The distinct ids of the pool, in pool order.
  std::vector<Id> DistinctIds() const {
    std::vector<Id> out;
    for (const Id id : pool_) {
      if (std::find(out.begin(), out.end(), id) == out.end()) {
        out.push_back(id);
      }
    }
    return out;
  }

  // A random subset of the distinct ids, in random order.
  std::vector<Id> RandomConfig(Random* rng) const {
    std::vector<Id> order = DistinctIds();
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng->Next(i)]);
    }
    order.resize(rng->Next(order.size() + 1));
    return order;
  }

  // Uncached reference: the optimizer on the equivalent Configuration.
  double Reference(const std::vector<Id>& config) const {
    return optimizer_->WorkloadCost(workload_, ids_->ToConfiguration(config));
  }

  size_t StatementIndex(const std::string& id) const {
    for (size_t i = 0; i < workload_.statements.size(); ++i) {
      if (workload_.statements[i].id == id) return i;
    }
    ADD_FAILURE() << "no statement " << id;
    return 0;
  }

  // Cached, uncached, delta and plan-rendering costings of random
  // configurations over the pool, all to the bit.
  void CheckCachedMatchesUncached();

  Database db_;
  Workload workload_;
  std::unique_ptr<SampleManager> samples_;
  std::unique_ptr<MVRegistry> mvs_;  // the second pool's matcher
  std::unique_ptr<WhatIfOptimizer> optimizer_;
  std::map<std::string, PhysicalIndexEstimate> sizes_;
  std::unique_ptr<CandidateIds> ids_;
  std::vector<Id> pool_;  // parallel to CandidatePool()
};

TEST_F(WhatIfCacheTest, OneSignatureSharesOneId) {
  EXPECT_EQ(pool_.front(), pool_.back());
  EXPECT_EQ(ids_->size(), pool_.size() - 1);
  EXPECT_EQ(ids_->Find(CandidatePool().back().def.Signature()), pool_.front());
  // Compressed variants share a structure; a clustered index or other
  // keys make another one.
  EXPECT_NE(pool_[0], pool_[10]);
  EXPECT_EQ(ids_->structure(pool_[0]), ids_->structure(pool_[10]));
  EXPECT_NE(ids_->structure(pool_[0]), ids_->structure(pool_[1]));
  EXPECT_NE(ids_->structure(pool_[0]), ids_->structure(pool_[4]));
}

void WhatIfCacheTest::CheckCachedMatchesUncached() {
  StatementCostCache cache(*ids_);
  Random rng(20260729);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<Id> config = RandomConfig(&rng);
    // Every other trial swaps one member the way backtracking does: erase
    // it, then append a replacement outside the configuration.
    if (trial % 2 == 1 && !config.empty()) {
      for (const Id id : DistinctIds()) {
        if (std::find(config.begin(), config.end(), id) != config.end()) {
          continue;
        }
        config.erase(config.begin() + rng.Next(config.size()));
        config.push_back(id);
        break;
      }
    }
    const Configuration owned = ids_->ToConfiguration(config);
    const double direct = optimizer_->WorkloadCost(workload_, owned);
    EXPECT_TRUE(SameBits(cache.WorkloadCost(config), direct))
        << owned.ToString();
    EXPECT_TRUE(SameBits(ids_->WorkloadCost(config), direct));
    // Per statement, every costing entry point agrees to the bit: the
    // cached and uncached ids and the plan renderer.
    for (size_t i = 0; i < workload_.statements.size(); ++i) {
      const Statement& stmt = workload_.statements[i];
      SCOPED_TRACE(stmt.id);
      const double cost = optimizer_->Cost(stmt, owned);
      const PlanCost plan = optimizer_->CostWithPlan(stmt, owned);
      EXPECT_TRUE(SameBits(cost, plan.total()));
      EXPECT_TRUE(SameBits(cost, cache.Cost(i, config)));
      EXPECT_TRUE(SameBits(cost, ids_->Cost(i, config)));
    }
    // The delta path: every one-entry extension costs the uncached double
    // to the bit and, on fresh caches, advances hits and misses exactly as
    // costing the whole extended configuration does.
    StatementCostCache delta(*ids_);
    StatementCostCache whole(*ids_);
    delta.WorkloadCost(config);
    whole.WorkloadCost(config);
    const StatementCostCache::Step step = cache.BeginStep(config);
    const StatementCostCache::Step fresh_step = delta.BeginStep(config);
    for (const Id id : pool_) {
      if (std::find(config.begin(), config.end(), id) != config.end()) {
        continue;
      }
      std::vector<Id> extended = config;
      extended.push_back(id);
      const double with = cache.WorkloadCostWith(step, id);
      EXPECT_TRUE(SameBits(with, Reference(extended)))
          << "+ " << ids_->estimate(id).def.ToString();
      delta.WorkloadCostWith(fresh_step, id);
      whole.WorkloadCost(extended);
      EXPECT_EQ(delta.hits(), whole.hits());
      EXPECT_EQ(delta.misses(), whole.misses());
    }
  }
  // The random-order configs revisit relevant subsequences, so the cache
  // must have produced hits — and every one of them matched bitwise above.
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(WhatIfCacheTest, CachedMatchesUncachedOnRandomConfigs) {
  CheckCachedMatchesUncached();
}

TEST_F(WhatIfCacheTest, CachedMatchesUncachedOnPartialBitmapJoinAndMVPool) {
  UseSecondPool();
  // The pool reaches the paths it is meant to: subsumed and unsubsumed
  // filters, equality-only BITMAP seeks, index-NL probes, MV answering and
  // MV maintenance.
  const size_t q6 = StatementIndex("Q6");
  const size_t q7 = StatementIndex("Q7");
  const size_t q8 = StatementIndex("Q8");
  const size_t q12 = StatementIndex("Q12");
  const size_t bulk = StatementIndex("BULK_LINEITEM");
  EXPECT_TRUE(ids_->relevant(q6, pool_[0]));
  EXPECT_FALSE(ids_->relevant(q6, pool_[1]));
  EXPECT_TRUE(ids_->relevant(q12, pool_[2]));
  EXPECT_FALSE(ids_->relevant(q8, pool_[6]));
  EXPECT_TRUE(ids_->relevant(bulk, pool_[1]));
  EXPECT_FALSE(ids_->relevant(StatementIndex("BULK_ORDERS"), pool_[7]));
  ASSERT_TRUE(ids_->relevant(q8, pool_[4]));
  ASSERT_TRUE(ids_->relevant(q7, pool_[7]));
  ASSERT_TRUE(ids_->relevant(bulk, pool_[7]));
  EXPECT_EQ(ids_->use(q8, pool_[4]).probe_join, 0u);
  EXPECT_TRUE(ids_->use(q7, pool_[7]).mv.has_value());
  EXPECT_TRUE(ids_->use(bulk, pool_[7]).maintained);
  const Configuration mv = ids_->ToConfiguration({pool_[7]});
  const std::string mv_path =
      optimizer_->CostWithPlan(workload_.statements[q7], mv).access_path;
  EXPECT_EQ(mv_path.rfind("MV ", 0), 0u) << mv_path;
  const Configuration partial = ids_->ToConfiguration({pool_[0]});
  const std::string partial_path =
      optimizer_->CostWithPlan(workload_.statements[q6], partial).access_path;
  EXPECT_NE(partial_path.find("WHERE"), std::string::npos) << partial_path;
  CheckCachedMatchesUncached();
}

// Misses cost only the relevant members' uses, so every id relevant()
// reports false for a statement must leave that statement's cost, under
// any configuration, bit-identical.
TEST_F(WhatIfCacheTest, IrrelevantIdsLeaveCostsBitIdentical) {
  for (const bool second_pool : {false, true}) {
    SCOPED_TRACE(second_pool ? "second pool" : "first pool");
    if (second_pool) UseSecondPool();
    Random rng(20261020);
    size_t checked = 0;
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<Id> config = RandomConfig(&rng);
      const Configuration owned = ids_->ToConfiguration(config);
      for (size_t i = 0; i < workload_.statements.size(); ++i) {
        const Statement& stmt = workload_.statements[i];
        const double cost = optimizer_->Cost(stmt, owned);
        for (const Id id : DistinctIds()) {
          if (ids_->relevant(i, id) ||
              std::find(config.begin(), config.end(), id) != config.end()) {
            continue;
          }
          std::vector<Id> extended = config;
          extended.push_back(id);
          const Configuration with = ids_->ToConfiguration(extended);
          EXPECT_TRUE(SameBits(cost, optimizer_->Cost(stmt, with)))
              << stmt.id << " + " << ids_->estimate(id).def.ToString();
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 0u);
  }
}

// An MV index is relevant to a SELECT exactly when the matcher answers it
// from the view, and to an INSERT exactly when the view is over the loaded
// table: relevance comes from the use, not from the object being an MV.
TEST_F(WhatIfCacheTest, MVRelevanceFollowsTheMatcher) {
  UseSecondPool();
  size_t relevant = 0;
  for (size_t entry = 7; entry <= 9; ++entry) {
    const IndexDef& def = ids_->estimate(pool_[entry]).def;
    for (size_t i = 0; i < workload_.statements.size(); ++i) {
      const Statement& stmt = workload_.statements[i];
      const bool expected =
          stmt.type == StatementType::kInsert
              ? mvs_->FactTableOf(def.object) == stmt.insert.table
              : mvs_->Match(def, stmt.select).has_value();
      EXPECT_EQ(ids_->relevant(i, pool_[entry]), expected)
          << stmt.id << " / " << def.ToString();
      if (expected) ++relevant;
    }
  }
  // Q7 for the two Q7 views, Q8 for the Q8 view, BULK_LINEITEM for all
  // three.
  EXPECT_EQ(relevant, 6u);
}

TEST_F(WhatIfCacheTest, RepeatedQueryIsServedFromCache) {
  StatementCostCache cache(*ids_);
  const std::vector<Id> config = {pool_[0], pool_[5]};

  const double first = cache.WorkloadCost(config);
  const uint64_t misses_after_first = cache.misses();
  EXPECT_EQ(misses_after_first, workload_.statements.size());
  EXPECT_EQ(cache.hits(), 0u);

  const double second = cache.WorkloadCost(config);
  EXPECT_TRUE(SameBits(first, second));
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_EQ(cache.hits(), workload_.statements.size());
}

TEST_F(WhatIfCacheTest, IrrelevantIndexReusesStatementCosts) {
  StatementCostCache cache(*ids_);
  const std::vector<Id> config = {pool_[0]};  // lineitem(l_shipdate)
  cache.WorkloadCost(config);
  const uint64_t misses_before = cache.misses();

  // Adding a supplier-only index can only affect statements that touch
  // supplier (Q2, Q5, Q11 in this workload) — everything else must hit.
  const std::vector<Id> extended = {pool_[0], pool_[8]};
  const double cached = cache.WorkloadCost(extended);
  EXPECT_TRUE(SameBits(cached, Reference(extended)));
  EXPECT_LT(cache.misses() - misses_before, workload_.statements.size() / 2);
}

// Relevance is the use's changes_plan(): on base tables it keeps the
// optimizer's usability rules without restating them.
TEST_F(WhatIfCacheTest, RelevanceFollowsTheUse) {
  // Q1 reads lineitem only (l_returnflag/l_linestatus/l_quantity/
  // l_extendedprice/l_shipdate), no joins.
  const size_t q1 = StatementIndex("Q1");
  // Seekable: predicate on l_shipdate matches the leading key.
  EXPECT_TRUE(ids_->relevant(q1, pool_[0]));
  // Neither seekable nor covering for Q1: keyed on l_partkey.
  EXPECT_FALSE(ids_->relevant(q1, pool_[2]));
  // Clustered indexes replace the heap: always relevant on their table.
  EXPECT_TRUE(ids_->relevant(q1, pool_[4]));
  // Other tables never matter to Q1.
  EXPECT_FALSE(ids_->relevant(q1, pool_[6]));
  EXPECT_FALSE(ids_->relevant(q1, pool_[8]));

  // Q8 joins part on p_partkey: the part PK index serves index-NL.
  const size_t q8 = StatementIndex("Q8");
  EXPECT_TRUE(ids_->relevant(q8, pool_[6]));

  // A bulk INSERT maintains every index on the loaded table and nothing
  // else.
  const size_t bulk = StatementIndex("BULK_LINEITEM");
  EXPECT_TRUE(ids_->relevant(bulk, pool_[2]));
  EXPECT_TRUE(ids_->relevant(bulk, pool_[4]));
  EXPECT_FALSE(ids_->relevant(bulk, pool_[6]));
}

}  // namespace
}  // namespace capd
