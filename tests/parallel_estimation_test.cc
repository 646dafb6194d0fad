// Tests for the parallel batch-estimation engine and the cross-round
// estimation cache. Parallel EstimateAll must be byte-identical to serial
// at any borrowed pool size. The cache has one contract: whatever it
// already holds, a batch is byte-identical to an uncached run (same
// fraction, plan, cost and counts); a warm cache only saves the SampleCF
// leaf builds it serves.
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "estimator/size_estimator.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class ParallelEstimationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 6000;
    tpch::Build(&db_, opt);
  }

  IndexDef Idx(std::vector<std::string> keys,
               CompressionKind kind = CompressionKind::kRow) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = std::move(keys);
    def.compression = kind;
    return def;
  }

  std::vector<IndexDef> Targets() {
    return {Idx({"l_shipdate"}),
            Idx({"l_shipmode"}),
            Idx({"l_shipdate", "l_shipmode"}),
            Idx({"l_shipdate", "l_shipmode", "l_quantity"}),
            Idx({"l_partkey", "l_suppkey"}),
            Idx({"l_quantity", "l_discount"}, CompressionKind::kPage),
            Idx({"l_partkey"}, CompressionKind::kPage)};
  }

  // Runs EstimateAll on a fresh SampleManager/estimator pair so every run
  // draws its own samples (per-key seeding makes them identical anyway).
  SizeEstimator::BatchResult RunBatch(SizeEstimationOptions options,
                                      uint64_t seed = 1234) {
    SampleManager samples(seed);
    TableSampleSource source(db_, &samples);
    SizeEstimator estimator(db_, &source, ErrorModel(), std::move(options));
    return estimator.EstimateAll(Targets());
  }

  // Estimator options that read and fill `cache`.
  static SizeEstimationOptions Cached(std::shared_ptr<EstimationCache> cache) {
    SizeEstimationOptions options;
    options.cache = std::move(cache);
    return options;
  }

  static void ExpectBitIdentical(const SizeEstimator::BatchResult& a,
                                 const SizeEstimator::BatchResult& b) {
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    EXPECT_EQ(std::memcmp(&a.chosen_f, &b.chosen_f, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&a.total_cost_pages, &b.total_cost_pages, sizeof(double)),
        0);
    EXPECT_EQ(a.num_sampled, b.num_sampled);
    EXPECT_EQ(a.num_deduced, b.num_deduced);
    auto ita = a.estimates.begin();
    auto itb = b.estimates.begin();
    for (; ita != a.estimates.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first);
      // memcmp, not ==: the criterion is bit-identical doubles.
      EXPECT_EQ(std::memcmp(&ita->second, &itb->second, sizeof(SampleCfResult)),
                0)
          << ita->first;
    }
  }

  Database db_;
};

TEST_F(ParallelEstimationTest, ParallelEstimateAllBitIdenticalToSerial) {
  const SizeEstimator::BatchResult base = RunBatch(SizeEstimationOptions{});
  EXPECT_EQ(base.estimates.size(), Targets().size());

  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    SizeEstimationOptions parallel;
    parallel.pool = &pool;
    ExpectBitIdentical(base, RunBatch(parallel));
  }
}

TEST_F(ParallelEstimationTest, ParallelIdenticalInNoDeductionMode) {
  SizeEstimationOptions serial;
  serial.use_deduction = false;
  const SizeEstimator::BatchResult base = RunBatch(serial);
  ThreadPool pool(4);
  SizeEstimationOptions parallel = serial;
  parallel.pool = &pool;
  ExpectBitIdentical(base, RunBatch(parallel));
}

TEST_F(ParallelEstimationTest, HardwareConcurrencyPoolWorks) {
  ThreadPool pool;  // hardware concurrency
  SizeEstimationOptions options;
  options.pool = &pool;
  const SizeEstimator::BatchResult r = RunBatch(options);
  EXPECT_EQ(r.estimates.size(), Targets().size());
}

TEST_F(ParallelEstimationTest, RepeatedRunsAreDeterministic) {
  // Same seed, fresh samples: estimates must be reproducible run to run
  // (per-key RNG seeding, not draw-order seeding).
  ThreadPool pool(4);
  SizeEstimationOptions options;
  options.pool = &pool;
  ExpectBitIdentical(RunBatch(options), RunBatch(options));
}

TEST_F(ParallelEstimationTest, PartlyWarmCacheDoesNotChangeTheBatch) {
  // A cache warmed by a different batch must not steer the fraction
  // search: every target still enters the graph, so the full batch plans,
  // costs and estimates exactly as an uncached run does.
  const SizeEstimator::BatchResult uncached = RunBatch(SizeEstimationOptions{});

  auto cache = std::make_shared<EstimationCache>();
  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), Cached(cache));
  const SizeEstimator::BatchResult warm =
      estimator.EstimateAll({Idx({"l_shipdate"}), Idx({"l_shipmode"})});
  ASSERT_GT(warm.num_sampled, 0u);
  ASSERT_GT(cache->size(), 0u);

  const SizeEstimator::BatchResult batch = estimator.EstimateAll(Targets());
  ExpectBitIdentical(uncached, batch);
  EXPECT_LE(batch.cache_hits, batch.num_sampled);
}

TEST_F(ParallelEstimationTest, WarmCacheServesEveryLeafOfARepeatedBatch) {
  auto cache = std::make_shared<EstimationCache>();
  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), Cached(cache));

  const SizeEstimator::BatchResult first = estimator.EstimateAll(Targets());
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_GT(first.total_cost_pages, 0.0);
  EXPECT_EQ(cache->size(), first.num_sampled);  // one entry per leaf
  ExpectBitIdentical(RunBatch(SizeEstimationOptions{}), first);

  // The repeat plans the same batch and builds no sample index: every
  // SampleCF leaf comes from the cache.
  const SizeEstimator::BatchResult second = estimator.EstimateAll(Targets());
  ExpectBitIdentical(first, second);
  EXPECT_EQ(second.cache_hits, first.num_sampled);
}

TEST_F(ParallelEstimationTest, CacheSharedAcrossEstimators) {
  auto cache = std::make_shared<EstimationCache>();
  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator::BatchResult first;
  {
    SizeEstimator estimator(db_, &source, ErrorModel(), Cached(cache));
    first = estimator.EstimateAll(Targets());
  }
  ThreadPool pool(4);
  SizeEstimationOptions options = Cached(cache);
  options.pool = &pool;
  SizeEstimator second(db_, &source, ErrorModel(), options);
  const SizeEstimator::BatchResult r = second.EstimateAll(Targets());
  ExpectBitIdentical(first, r);
  EXPECT_EQ(r.cache_hits, first.num_sampled);
  EXPECT_EQ(cache->hits(), first.num_sampled);
}

TEST_F(ParallelEstimationTest, TinyCapacityCacheStaysEmpty) {
  // A bound too small for even one entry: every insert is evicted again,
  // so the cache never grows — the extreme case of the memory bound — and
  // the batch still matches an uncached run.
  auto cache = std::make_shared<EstimationCache>(1);
  const SizeEstimator::BatchResult batch = RunBatch(Cached(cache));
  ExpectBitIdentical(RunBatch(SizeEstimationOptions{}), batch);
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->charged_bytes(), 0u);
  EXPECT_EQ(cache->evictions(), batch.num_sampled);
}

// Bytes one entry charges; keys of equal length charge equally.
size_t EntryBytes(const std::string& signature) {
  EstimationCache probe;
  probe.Insert(signature, 0.01, SampleCfResult{});
  return probe.charged_bytes();
}

TEST(EstimationCacheTest, LruEvictsLeastRecentlyUsed) {
  EstimationCache cache(3 * EntryBytes("a"));
  SampleCfResult r;
  r.est_bytes = 1.0;
  cache.Insert("a", 0.01, r);
  cache.Insert("b", 0.01, r);
  cache.Insert("c", 0.01, r);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch "a" so "b" becomes least recently used, then overflow.
  EXPECT_TRUE(cache.Lookup("a", 0.01).has_value());
  cache.Insert("d", 0.01, r);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Lookup("b", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("a", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("c", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("d", 0.01).has_value());
}

TEST(EstimationCacheTest, BoundedCacheKeepsTheMostRecentEntries) {
  const size_t bytes_for_two = 2 * EntryBytes("idx0");
  EstimationCache cache(bytes_for_two);
  for (int i = 0; i < 8; ++i) {
    cache.Insert("idx" + std::to_string(i), 0.01, SampleCfResult{});
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.charged_bytes(), bytes_for_two);
  EXPECT_EQ(cache.evictions(), 6u);
  EXPECT_TRUE(cache.Lookup("idx7", 0.01).has_value());
  EXPECT_TRUE(cache.Lookup("idx6", 0.01).has_value());
  EXPECT_FALSE(cache.Lookup("idx5", 0.01).has_value());
}

TEST(EstimationCacheTest, EntriesAreKeyedByFraction) {
  EstimationCache cache;
  SampleCfResult coarse;
  coarse.est_bytes = 100.0;
  cache.Insert("idx", 0.01, coarse);
  const std::optional<SampleCfResult> hit = cache.Lookup("idx", 0.01);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->est_bytes, 100.0);
  EXPECT_FALSE(cache.Lookup("idx", 0.10).has_value());
  // Keyed on the exact double, not on a rounded rendering of it.
  EXPECT_FALSE(cache.Lookup("idx", 0.010000001).has_value());
  EXPECT_FALSE(cache.Lookup("other", 0.01).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

}  // namespace
}  // namespace capd
