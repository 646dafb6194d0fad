// Tests for the parallel batch-estimation engine and the cross-round
// estimation cache. Parallel EstimateAll must be byte-identical to serial
// at any borrowed pool size. The cache has one contract: whatever it
// already holds, a batch is byte-identical to an uncached run (same
// fraction, plan, cost and counts); a warm cache only saves the work it
// serves — a whole batch under its exact key, else the SampleCF leaf
// builds.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "estimator/size_estimator.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

// Counts the calls an estimator makes into its sample source, and raises
// `cancel` (when given) on call number `fire_at`. A batch served whole
// from the cache builds no graph, so it makes none.
class CountingSampleSource : public SampleSource {
 public:
  explicit CountingSampleSource(
      SampleSource* inner, std::shared_ptr<std::atomic<bool>> cancel = nullptr,
      int fire_at = 0)
      : inner_(inner), cancel_(std::move(cancel)), fire_at_(fire_at) {}

  const Table& Sample(const std::string& object, double f) override {
    Count();
    return inner_->Sample(object, f);
  }
  void DrawSample(const std::string& object, double f,
                  ThreadPool* pool) override {
    Count();
    inner_->DrawSample(object, f, pool);
  }
  uint64_t SampleRows(const std::string& object, double f) override {
    Count();
    return inner_->SampleRows(object, f);
  }
  double FullTuples(const std::string& object) override {
    Count();
    return inner_->FullTuples(object);
  }
  const Schema& ObjectSchema(const std::string& object) override {
    Count();
    return inner_->ObjectSchema(object);
  }
  int calls() const { return calls_.load(); }

 private:
  void Count() {
    if (++calls_ == fire_at_ && cancel_ != nullptr) cancel_->store(true);
  }

  SampleSource* inner_;
  std::shared_ptr<std::atomic<bool>> cancel_;
  int fire_at_;
  std::atomic<int> calls_{0};
};

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
  EstimationBatch RunBatch(SizeEstimationOptions options,
                           uint64_t seed = 1234) {
    return RunBatchOf(Targets(), std::move(options), ErrorModel(), seed);
  }

  EstimationBatch RunBatchOf(const std::vector<IndexDef>& targets,
                             SizeEstimationOptions options, ErrorModel model,
                             uint64_t seed = 1234) {
    SampleManager samples(seed);
    TableSampleSource source(db_, &samples);
    SizeEstimator estimator(db_, &source, std::move(model),
                            std::move(options));
    return estimator.EstimateAll(targets);
  }

  // Estimator options that read and fill `cache`.
  static SizeEstimationOptions Cached(std::shared_ptr<EstimationCache> cache) {
    SizeEstimationOptions options;
    options.cache = std::move(cache);
    return options;
  }

  static void ExpectBitIdentical(const EstimationBatch& a,
                                 const EstimationBatch& b) {
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
  const EstimationBatch base = RunBatch(SizeEstimationOptions{});
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
  const EstimationBatch base = RunBatch(serial);
  ThreadPool pool(4);
  SizeEstimationOptions parallel = serial;
  parallel.pool = &pool;
  ExpectBitIdentical(base, RunBatch(parallel));
}

TEST_F(ParallelEstimationTest, HardwareConcurrencyPoolWorks) {
  ThreadPool pool;  // hardware concurrency
  SizeEstimationOptions options;
  options.pool = &pool;
  const EstimationBatch r = RunBatch(options);
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
  const EstimationBatch uncached = RunBatch(SizeEstimationOptions{});

  auto cache = std::make_shared<EstimationCache>();
  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), Cached(cache));
  const EstimationBatch warm =
      estimator.EstimateAll({Idx({"l_shipdate"}), Idx({"l_shipmode"})});
  ASSERT_GT(warm.num_sampled, 0u);
  ASSERT_GT(cache->size(), 0u);

  const uint64_t hits = cache->hits();
  const EstimationBatch batch = estimator.EstimateAll(Targets());
  ExpectBitIdentical(uncached, batch);
  EXPECT_LE(cache->hits() - hits, batch.num_sampled);
}

TEST_F(ParallelEstimationTest, WarmCacheServesEveryLeafOfARepeatedBatch) {
  auto cache = std::make_shared<EstimationCache>();
  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator estimator(db_, &source, ErrorModel(), Cached(cache));

  const EstimationBatch first = estimator.EstimateAll(Targets());
  EXPECT_EQ(cache->hits(), 0u);
  EXPECT_GT(first.total_cost_pages, 0.0);
  EXPECT_EQ(cache->size(), first.num_sampled);  // one entry per leaf
  ExpectBitIdentical(RunBatch(SizeEstimationOptions{}), first);

  // A batch with another key (one target listed twice) is planned again,
  // to the same plan, and builds no sample index: every SampleCF leaf
  // comes from the cache.
  std::vector<IndexDef> repeated = Targets();
  repeated.push_back(repeated.front());
  const EstimationBatch second = estimator.EstimateAll(repeated);
  ExpectBitIdentical(first, second);
  EXPECT_EQ(cache->hits(), first.num_sampled);
  EXPECT_EQ(cache->batches(), 2u);
}

TEST_F(ParallelEstimationTest, RepeatedBatchIsServedWhole) {
  auto cache = std::make_shared<EstimationCache>();
  SampleManager samples(1234);
  TableSampleSource inner(db_, &samples);
  CountingSampleSource source(&inner);
  SizeEstimator estimator(db_, &source, ErrorModel(), Cached(cache));

  const EstimationBatch first = estimator.EstimateAll(Targets());
  ExpectBitIdentical(RunBatch(SizeEstimationOptions{}), first);
  EXPECT_EQ(cache->batches(), 1u);
  const size_t leaves = cache->size();
  const uint64_t hits = cache->hits();
  const uint64_t misses = cache->misses();
  const int calls = source.calls();

  // The repeat builds no graph, probes no fraction and draws nothing, yet
  // counts one leaf hit per SampleCF leaf of the plan, as a re-plan would.
  const EstimationBatch second = estimator.EstimateAll(Targets());
  ExpectBitIdentical(first, second);
  EXPECT_EQ(cache->hits(), hits + first.num_sampled);
  EXPECT_EQ(cache->misses(), misses);
  EXPECT_EQ(source.calls(), calls);
  EXPECT_EQ(cache->size(), leaves);
  EXPECT_EQ(cache->batches(), 1u);
}

TEST_F(ParallelEstimationTest, ChangingAnyKeyInputMisses) {
  auto cache = std::make_shared<EstimationCache>();
  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator(db_, &source, ErrorModel(), Cached(cache))
      .EstimateAll(Targets());
  ASSERT_EQ(cache->batches(), 1u);

  struct Variant {
    const char* name;
    std::vector<IndexDef> targets;
    SizeEstimationOptions options;
    ErrorModel::Coefficients model;
  };
  std::vector<Variant> variants;
  auto add = [&](const char* name) -> Variant& {
    variants.push_back({name, Targets(), SizeEstimationOptions{}, {}});
    return variants.back();
  };
  std::vector<IndexDef>& reversed = add("target order").targets;
  std::reverse(reversed.begin(), reversed.end());
  add("one target").targets.back().compression = CompressionKind::kRow;
  add("e").options.e = 0.4;
  add("one fraction").options.fractions.back() = 0.2;
  add("use_deduction").options.use_deduction = false;
  add("sort-order deduction").options.enable_sort_order_deduction = true;
  add("error model").model.colext_ld_stddev = 0.05;

  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    const size_t batches = cache->batches();
    SizeEstimationOptions options = v.options;
    options.cache = cache;
    SizeEstimator estimator(db_, &source, ErrorModel(v.model), options);
    const EstimationBatch served = estimator.EstimateAll(v.targets);
    EXPECT_EQ(cache->batches(), batches + 1) << "a changed input must miss";
    ExpectBitIdentical(
        RunBatchOf(v.targets, v.options, ErrorModel(v.model)), served);
    // ... and the variant's own repeat hits.
    ExpectBitIdentical(served, estimator.EstimateAll(v.targets));
    EXPECT_EQ(cache->batches(), batches + 1);
  }
}

TEST_F(ParallelEstimationTest, CancelledBatchIsNotStored) {
  const EstimationBatch uncached = RunBatch(SizeEstimationOptions{});
  int batch_calls = 0;
  {
    SampleManager samples(1234);
    TableSampleSource inner(db_, &samples);
    CountingSampleSource counting(&inner);
    SizeEstimator(db_, &counting, ErrorModel(), SizeEstimationOptions{})
        .EstimateAll(Targets());
    batch_calls = counting.calls();
  }
  ASSERT_GT(batch_calls, 4);

  // The flag goes up halfway through the batch's calls into its source.
  auto cache = std::make_shared<EstimationCache>();
  auto flag = std::make_shared<std::atomic<bool>>(false);
  SampleManager samples(1234);
  TableSampleSource inner(db_, &samples);
  CountingSampleSource firing(&inner, flag, batch_calls / 2);
  SizeEstimationOptions options = Cached(cache);
  options.cancel = flag;
  SizeEstimator estimator(db_, &firing, ErrorModel(), options);
  estimator.EstimateAll(Targets());
  ASSERT_TRUE(flag->load());
  EXPECT_EQ(cache->batches(), 0u);

  // The same batch, uncancelled, is planned afresh and matches.
  flag->store(false);
  ExpectBitIdentical(uncached, estimator.EstimateAll(Targets()));
  EXPECT_EQ(cache->batches(), 1u);
}

TEST_F(ParallelEstimationTest, CacheSharedAcrossEstimators) {
  auto cache = std::make_shared<EstimationCache>();
  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  EstimationBatch first;
  {
    SizeEstimator estimator(db_, &source, ErrorModel(), Cached(cache));
    first = estimator.EstimateAll(Targets());
  }
  ThreadPool pool(4);
  SizeEstimationOptions options = Cached(cache);
  options.pool = &pool;
  SizeEstimator second(db_, &source, ErrorModel(), options);
  const EstimationBatch r = second.EstimateAll(Targets());
  ExpectBitIdentical(first, r);
  EXPECT_EQ(cache->hits(), first.num_sampled);
}

TEST_F(ParallelEstimationTest, FiltersThatPrintAlikeStayDistinct) {
  // Two partial indexes whose double literals print alike at six decimals
  // are two indexes: through one shared cache, each estimates exactly as a
  // fresh estimator does.
  auto partial = [&](double bound) {
    IndexDef def = Idx({"l_shipdate"});
    def.include_columns = {"l_quantity"};
    def.filter =
        ColumnFilter{"l_discount", FilterOp::kLe, Value::Double(bound), {}};
    return def;
  };
  ASSERT_EQ(partial(0.0299999).ToString(), partial(0.0300001).ToString());
  SampleManager samples(1234);
  TableSampleSource source(db_, &samples);
  SizeEstimator shared(db_, &source, ErrorModel(),
                       Cached(std::make_shared<EstimationCache>()));
  for (double bound : {0.0299999, 0.0300001}) {
    SCOPED_TRACE(bound);
    const std::vector<IndexDef> targets = {partial(bound)};
    ExpectBitIdentical(
        RunBatchOf(targets, SizeEstimationOptions{}, ErrorModel()),
        shared.EstimateAll(targets));
  }
}

TEST(EstimationCacheTest, EntriesAreKeyedByFraction) {
  EstimationCache cache;
  SampleCfResult coarse;
  coarse.est_bytes = 100.0;
  cache.Insert("idx", "t", 0.01, coarse);
  const std::optional<SampleCfResult> hit = cache.Lookup("idx", "t", 0.01);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->est_bytes, 100.0);
  EXPECT_FALSE(cache.Lookup("idx", "t", 0.10).has_value());
  // Keyed on the exact double, not on a rounded rendering of it.
  EXPECT_FALSE(cache.Lookup("idx", "t", 0.010000001).has_value());
  EXPECT_FALSE(cache.Lookup("other", "t", 0.01).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(EstimationCacheTest, EntriesAreKeyedByObjectIdentity) {
  // One signature on two objects that share a name but not a definition
  // (a view re-registered with another predicate) keeps two entries.
  EstimationCache cache;
  SampleCfResult before;
  before.est_bytes = 1.0;
  SampleCfResult after;
  after.est_bytes = 2.0;
  cache.Insert("mv_Q1(a)|ROW", "MV|old", 0.01, before);
  EXPECT_FALSE(cache.Lookup("mv_Q1(a)|ROW", "MV|new", 0.01).has_value());
  cache.Insert("mv_Q1(a)|ROW", "MV|new", 0.01, after);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DOUBLE_EQ(cache.Lookup("mv_Q1(a)|ROW", "MV|old", 0.01)->est_bytes,
                   1.0);
  EXPECT_DOUBLE_EQ(cache.Lookup("mv_Q1(a)|ROW", "MV|new", 0.01)->est_bytes,
                   2.0);
}

}  // namespace
}  // namespace capd
