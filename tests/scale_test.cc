// Tests for the blocked/generated Table path and the streaming sampler:
// byte-identity of streaming vs materialized samples, blocked iteration vs
// rows filled straight from the source, kept-rows collection (with and
// without a pool) vs the full scan, sampled stats on generated tables, a
// cold tune's report at several estimation thread counts, and — via the
// process-wide allocation tracker in
// src/common/alloc_tracker.{h,cc} (activated for this binary by referencing
// its accessors) — a hard assertion that drawing a sample from a
// multi-million-row generated table allocates O(sample), not O(table), and
// allocation budgets for a warm and a cold tuning request.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "common/alloc_tracker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/advisor_engine.h"
#include "stats/column_stats.h"
#include "stats/sampler.h"
#include "storage/block.h"
#include "storage/table.h"
#include "workloads/registry.h"
#include "workloads/scale.h"

namespace capd {
namespace {

// Rows for the big-table memory assertion: 10^7 in optimized builds, 10^6
// under sanitizers/debug where generation is ~10x slower.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(NDEBUG)
constexpr uint64_t kBigRows = 1000000;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr uint64_t kBigRows = 1000000;
#else
constexpr uint64_t kBigRows = 10000000;
#endif
#else
constexpr uint64_t kBigRows = 10000000;
#endif

std::string RowString(const Row& row) {
  std::string s;
  for (const Value& v : row) {
    s += v.ToString();
    s += '\x1f';
  }
  return s;
}

// A generated events table of `rows` rows (plus its devices dimension).
std::unique_ptr<Database> BuildScaleDb(uint64_t rows) {
  auto db = std::make_unique<Database>();
  scale::Options opt;
  opt.fact_rows = rows;
  scale::Build(db.get(), opt);
  return db;
}

// Simple deterministic source for table-level tests: (idx, seeded draw).
class PairSource : public BlockSource {
 public:
  explicit PairSource(uint64_t seed) : seed_(seed) {}

  void FillBlock(uint64_t block_index, uint64_t first_row,
                 const std::vector<uint64_t>& rows,
                 ColumnBlock* out) const override {
    Random rng(BlockSeed(seed_, block_index));
    out->Resize(rows.size());
    size_t j = 0;
    for (uint64_t r = 0; j < rows.size(); ++r) {
      const int64_t v = rng.Uniform(0, 1000);
      for (; j < rows.size() && rows[j] == r; ++j) {
        out->SetInt64(0, j, static_cast<int64_t>(first_row + r));
        out->SetInt64(1, j, v);
      }
    }
  }

 private:
  uint64_t seed_;
};

Schema PairSchema() {
  return Schema({{"idx", ValueType::kInt64, 8}, {"v", ValueType::kInt64, 8}});
}

// The first `n` rows of `source`, each block filled into a fresh
// ColumnBlock: the reference the Table's scans must reproduce.
std::vector<Row> SourceRows(const Schema& schema, const BlockSource& source,
                            uint64_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  Row row;
  for (uint64_t b = 0; b * kDefaultBlockRows < n; ++b) {
    const uint64_t first = b * kDefaultBlockRows;
    const uint64_t count = std::min(kDefaultBlockRows, n - first);
    std::vector<uint64_t> every_row(count);
    std::iota(every_row.begin(), every_row.end(), uint64_t{0});
    ColumnBlock block(schema);
    source.FillBlock(b, first, every_row, &block);
    for (uint64_t r = 0; r < count; ++r) {
      block.RowAt(r, &row);
      rows.push_back(row);
    }
  }
  return rows;
}

TEST(BlockTest, ColumnBlockRoundTrip) {
  const Schema schema({{"i", ValueType::kInt64, 8},
                       {"d", ValueType::kDate, 8},
                       {"x", ValueType::kDouble, 8},
                       {"s", ValueType::kString, 4}});
  ColumnBlock block(schema);
  block.Resize(2);
  block.SetInt64(0, 0, 7);
  block.SetInt64(1, 0, 18262);
  block.SetDouble(2, 0, 1.5);
  block.SetString(3, 0, "ab");
  block.SetInt64(0, 1, 9);  // row 1 keeps its other cells zero/empty
  EXPECT_EQ(block.num_rows(), 2u);
  EXPECT_EQ(block.num_columns(), 4u);
  Row out;
  block.RowAt(0, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], Value::Int64(7));
  EXPECT_EQ(out[1].type(), ValueType::kDate);
  EXPECT_EQ(out[1], Value::Date(18262));
  EXPECT_EQ(out[2], Value::Double(1.5));
  EXPECT_EQ(out[3], Value::String("ab"));
  block.RowAt(1, &out);
  EXPECT_EQ(out[0], Value::Int64(9));
  EXPECT_EQ(out[1], Value::Date(0));
  EXPECT_EQ(out[3], Value::String(""));

  // Resize leaves no cell of the previous block behind.
  block.Resize(0);
  EXPECT_EQ(block.num_rows(), 0u);
  block.Resize(1);
  block.RowAt(0, &out);
  EXPECT_EQ(out[0], Value::Int64(0));
  EXPECT_EQ(out[2], Value::Double(0.0));
  EXPECT_EQ(out[3], Value::String(""));
}

TEST(BlockDeathTest, SettersCheckColumnTypeAndRow) {
  ColumnBlock block(PairSchema());
  block.Resize(1);
  EXPECT_DEATH(block.SetInt64(2, 0, 1), "cols_.size");
  EXPECT_DEATH(block.SetDouble(0, 0, 1.0), "is INT64");
  EXPECT_DEATH(block.SetString(1, 0, "x"), "is INT64");
  EXPECT_DEATH(block.SetInt64(0, 1, 1), "num_rows_");
}

TEST(BlockTest, BlockSeedDecorrelatesNeighbors) {
  EXPECT_NE(BlockSeed(1, 0), BlockSeed(1, 1));
  EXPECT_NE(BlockSeed(1, 0), BlockSeed(2, 0));
  EXPECT_EQ(BlockSeed(5, 9), BlockSeed(5, 9));
}

TEST(GeneratedTableTest, ScanMatchesMaterializedRows) {
  // Odd row count exercises the partial final block.
  const uint64_t n = 3 * kDefaultBlockRows + 17;
  Table gen("t", PairSchema(), n, std::make_shared<PairSource>(99));
  EXPECT_FALSE(gen.materialized());
  EXPECT_EQ(gen.num_rows(), n);
  EXPECT_EQ(gen.num_blocks(), 4u);

  const std::vector<Row> mat = SourceRows(PairSchema(), PairSource(99), n);
  ASSERT_EQ(mat.size(), n);

  uint64_t visited = 0;
  gen.ScanRows([&](uint64_t idx, const Row& row) {
    EXPECT_EQ(idx, visited);
    EXPECT_EQ(RowString(row), RowString(mat[idx]));
    ++visited;
  });
  EXPECT_EQ(visited, n);
}

// Pick sets over an n-row table of `block_rows`-row blocks (n spans at
// least two blocks): none, one row, the first and last row of every block,
// every row of block 1, a repeated row, all rows, and 20 seeded random
// sets.
std::vector<std::vector<uint64_t>> PickSets(uint64_t n, uint64_t block_rows) {
  std::vector<std::vector<uint64_t>> sets = {{}, {n / 2}};
  std::vector<uint64_t> edges;
  for (uint64_t first = 0; first < n; first += block_rows) {
    edges.push_back(first);
    edges.push_back(std::min(first + block_rows, n) - 1);
  }
  sets.push_back(edges);
  std::vector<uint64_t> block1(std::min(block_rows, n - block_rows));
  std::iota(block1.begin(), block1.end(), block_rows);
  sets.push_back(block1);
  sets.push_back({1, 1, block_rows + 2, block_rows + 2, block_rows + 2});
  std::vector<uint64_t> all(n);
  std::iota(all.begin(), all.end(), uint64_t{0});
  sets.push_back(all);
  Random rng(1017);
  for (int s = 0; s < 20; ++s) {
    sets.push_back(rng.SampleIndices(n, 1 + rng.Next(n / 8)));
  }
  return sets;
}

// A kept-rows fill renders exactly the rows a full fill does, with or
// without a pool.
void ExpectCollectRowsMatchScan(const Table& table) {
  std::vector<std::string> scanned;
  table.ScanRows(
      [&](uint64_t, const Row& row) { scanned.push_back(RowString(row)); });
  ASSERT_EQ(scanned.size(), table.num_rows());
  ThreadPool two(2);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two}) {
    for (const std::vector<uint64_t>& picks :
         PickSets(table.num_rows(), table.block_rows())) {
      const std::vector<Row> got = table.CollectRows(picks, pool);
      ASSERT_EQ(got.size(), picks.size());
      for (size_t i = 0; i < picks.size(); ++i) {
        ASSERT_EQ(RowString(got[i]), scanned[picks[i]])
            << table.name() << " row " << picks[i] << " of " << picks.size()
            << " picks, pool " << (pool != nullptr);
      }
    }
  }
}

TEST(GeneratedTableTest, CollectRowsMatchesScanRows) {
  const Table pairs("t", PairSchema(), 3 * kDefaultBlockRows + 17,
                    std::make_shared<PairSource>(77));
  ExpectCollectRowsMatchScan(pairs);
  const std::unique_ptr<Database> db = BuildScaleDb(30000);
  ExpectCollectRowsMatchScan(db->table("events"));
}

TEST(GeneratedTableDeathTest, CollectRowsChecksEveryIndexOrder) {
  // 5 follows 7 inside block 0: each index is checked against its
  // predecessor, on both kinds of table.
  const Table gen("t", PairSchema(), 100, std::make_shared<PairSource>(5));
  EXPECT_DEATH(gen.CollectRows({3, 7, 5}), "sorted ascending");
  Table mat("m", PairSchema());
  for (int64_t i = 0; i < 10; ++i) {
    mat.AddRow({Value::Int64(i), Value::Int64(i)});
  }
  EXPECT_DEATH(mat.CollectRows({3, 7, 5}), "sorted ascending");
}

TEST(ScaleWorkloadTest, StreamingSampleMatchesMaterializedSample) {
  const std::unique_ptr<Database> db = BuildScaleDb(10000);
  const Table& gen = db->table("events");
  ASSERT_FALSE(gen.materialized());
  Table mat(gen.name(), gen.schema());
  gen.ScanRows([&](uint64_t, const Row& row) { mat.AddRow(row); });

  Random rng_gen(4242), rng_mat(4242);
  const std::unique_ptr<Table> from_gen =
      CreateUniformSample(gen, 0.03, /*min_rows=*/50, &rng_gen);
  const std::unique_ptr<Table> from_mat =
      CreateUniformSample(mat, 0.03, /*min_rows=*/50, &rng_mat);

  ASSERT_EQ(from_gen->num_rows(), from_mat->num_rows());
  ASSERT_GT(from_gen->num_rows(), 0u);
  for (uint64_t i = 0; i < from_gen->num_rows(); ++i) {
    ASSERT_EQ(RowString(from_gen->rows()[i]), RowString(from_mat->rows()[i]));
  }
}

TEST(ScaleWorkloadTest, SampledStatsOnGeneratedTable) {
  const std::unique_ptr<Database> db = BuildScaleDb(100000);
  const Table& events = db->table("events");
  const TableStats stats = TableStats::Compute(events);
  EXPECT_EQ(stats.num_rows(), 100000u);
  // e_id is unique: the GEE-scaled estimate must land well above the raw
  // sample distinct count and at most n.
  const ColumnStats& id = stats.column("e_id");
  EXPECT_EQ(id.num_rows, 100000u);
  EXPECT_GT(id.distinct, TableStats::kSampledStatsRows);
  EXPECT_LE(id.distinct, 100000u);
  // e_status has 4 classes regardless of scale.
  EXPECT_EQ(stats.column("e_status").distinct, 4u);
  // Deterministic: recomputing yields the same estimates.
  const TableStats again = TableStats::Compute(events);
  EXPECT_EQ(again.column("e_id").distinct, id.distinct);
  // Column combinations scale from the retained sample.
  const uint64_t combo =
      stats.DistinctOfColumns(events, {"e_status", "e_region"});
  EXPECT_GE(combo, 4u);
  EXPECT_LE(combo, 80u);  // 4 statuses x 20 regions
}

TEST(ScaleWorkloadTest, BigTableSampleAllocatesOSample) {
  const std::unique_ptr<Database> db = BuildScaleDb(kBigRows);
  const Table& events = db->table("events");
  ASSERT_EQ(events.num_rows(), kBigRows);

  // Full materialization of kBigRows events rows would allocate gigabytes
  // (8 Values/row at ~56 bytes each). The streaming sample path must stay
  // within a small fixed budget above the baseline: sample rows + one
  // scratch block + the sorted index vector.
  const long long baseline = ResetPeakAllocBytes();
  Random rng(7);
  const double f =
      static_cast<double>(10000) / static_cast<double>(kBigRows);
  const std::unique_ptr<Table> sample =
      CreateUniformSample(events, f, /*min_rows=*/50, &rng);
  const long long peak_delta = PeakAllocBytes() - baseline;

  EXPECT_EQ(sample->num_rows(), 10000u);
  constexpr long long kBudgetBytes = 64ll << 20;  // 64 MiB
  EXPECT_LT(peak_delta, kBudgetBytes)
      << "sample extraction allocated " << peak_delta
      << " bytes — O(table), not O(sample)?";
}

// A cold request draws its samples block-parallel across the estimation
// pool and runs its leaves there: the report is the same at every count.
TEST(ScaleWorkloadTest, ColdTuneJsonIsIdenticalAcrossEstimationThreads) {
  workloads::WorkloadSpec spec;
  spec.name = "scale";
  spec.rows = 30000;
  workloads::BuiltWorkload built;
  std::string error;
  ASSERT_TRUE(workloads::Build(spec, &built, &error)) << error;
  TuningRequest request;
  request.workload = built.workload;
  request.strategy = "dtac-both";
  request.budget = TuningBudget::Fraction(0.2);
  std::string serial;
  for (const int threads : {1, 2, 4}) {
    EngineOptions options;
    options.estimation_threads = threads;
    AdvisorEngine engine(*built.db, options);  // fresh samples: cold
    const TuningResponse response = engine.Tune(request);
    ASSERT_TRUE(response.ok()) << response.error;
    if (threads == 1) {
      serial = response.json;
    } else {
      EXPECT_EQ(response.json, serial) << threads << " estimation threads";
    }
  }
}

// A warm request re-plans the estimation graph and re-runs the greedy
// search, but every SampleCF leaf is served from the engine's cache, so
// its allocations count planning and what-if overhead, not sampling.
TEST(AllocationGate, WarmTpchTuneStaysUnderAllocationBudget) {
  workloads::WorkloadSpec spec;
  spec.name = "tpch";
  spec.rows = 2000;
  workloads::BuiltWorkload built;
  std::string error;
  ASSERT_TRUE(workloads::Build(spec, &built, &error)) << error;
  AdvisorEngine engine(*built.db);  // one search and one estimation thread
  TuningRequest request;
  request.workload = built.workload;
  request.strategy = "dtac-both";
  request.budget = TuningBudget::Fraction(0.2);
  ASSERT_TRUE(engine.Tune(request).ok());  // cold: fills the caches

  const uint64_t before = AllocCount();
  const TuningResponse warm = engine.Tune(request);
  const uint64_t allocs = AllocCount() - before;
  ASSERT_TRUE(warm.ok()) << warm.error;
  std::printf("warm tpch dtac-both tune: %llu allocations\n",
              static_cast<unsigned long long>(allocs));
  constexpr uint64_t kAllocBudget = 50000;
  EXPECT_LE(allocs, kAllocBudget);
}

// A cold request draws the events sample and packs every compressed
// candidate on it: its allocations count the sample draw, the index
// renders and the PAGE fits. The Database's TableStats, which every engine
// on it shares, are filled by a first engine's tune beforehand.
TEST(AllocationGate, ColdScaleTuneStaysUnderAllocationBudget) {
  workloads::WorkloadSpec spec;
  spec.name = "scale";
  spec.rows = 30000;
  workloads::BuiltWorkload built;
  std::string error;
  ASSERT_TRUE(workloads::Build(spec, &built, &error)) << error;
  TuningRequest request;
  request.workload = built.workload;
  request.strategy = "dtac-both";
  request.budget = TuningBudget::Fraction(0.2);
  {
    AdvisorEngine first(*built.db);
    ASSERT_TRUE(first.Tune(request).ok());
  }

  AdvisorEngine engine(*built.db);  // fresh samples and estimation cache
  const uint64_t before = AllocCount();
  const TuningResponse cold = engine.Tune(request);
  const uint64_t allocs = AllocCount() - before;
  ASSERT_TRUE(cold.ok()) << cold.error;
  std::printf("cold scale dtac-both tune: %llu allocations\n",
              static_cast<unsigned long long>(allocs));
  constexpr uint64_t kAllocBudget = 25000;
  EXPECT_LE(allocs, kAllocBudget);
}

}  // namespace
}  // namespace capd
