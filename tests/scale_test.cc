// Tests for column-block tables and the streaming sampler: byte-identity
// of generated vs resident samples, block iteration vs rows filled straight
// from the source, resident block geometry, kept-rows collection (with and
// without a pool) vs the full scan, sampled stats on generated tables, a
// cold tune's report at several estimation thread counts, and — via the
// process-wide allocation tracker in
// src/common/alloc_tracker.{h,cc} (activated for this binary by referencing
// its accessors) — a hard assertion that drawing a sample from a
// multi-million-row generated table allocates O(sample), not O(table),
// allocation budgets for a warm and a cold tuning request, and live/peak
// byte budgets for resident tpch data and a generated table's stats draw.
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

TEST(GeneratedTableTest, ScanMatchesSourceRows) {
  // Odd row count exercises the partial final block.
  const uint64_t n = 3 * kDefaultBlockRows + 17;
  Table gen("t", PairSchema(), n, std::make_shared<PairSource>(99));
  EXPECT_TRUE(gen.generated());
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

// Each row of `table`, rendered by RowString, in order.
std::vector<std::string> RowStrings(const Table& table) {
  std::vector<std::string> rows;
  table.ScanRows(
      [&](uint64_t, const Row& row) { rows.push_back(RowString(row)); });
  return rows;
}

// A resident copy of `table`, appended row by row.
std::unique_ptr<Table> ResidentCopy(const Table& table) {
  auto copy = std::make_unique<Table>(table.name(), table.schema());
  table.ScanRows([&](uint64_t, const Row& row) { copy->AddRow(row); });
  return copy;
}

// A kept-rows read returns exactly the rows a full scan does, with or
// without a pool, as a resident table of full blocks.
void ExpectCollectRowsMatchScan(const Table& table) {
  const std::vector<std::string> scanned = RowStrings(table);
  ASSERT_EQ(scanned.size(), table.num_rows());
  ThreadPool two(2);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two}) {
    for (const std::vector<uint64_t>& picks :
         PickSets(table.num_rows(), table.block_rows())) {
      const std::unique_ptr<Table> got =
          table.CollectRows("picks", picks, pool);
      EXPECT_FALSE(got->generated());
      ASSERT_EQ(got->num_rows(), picks.size());
      EXPECT_EQ(got->num_blocks(),
                (picks.size() + kDefaultBlockRows - 1) / kDefaultBlockRows);
      const std::vector<std::string> rows = RowStrings(*got);
      for (size_t i = 0; i < picks.size(); ++i) {
        ASSERT_EQ(rows[i], scanned[picks[i]])
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
  ExpectCollectRowsMatchScan(*ResidentCopy(pairs));
  const std::unique_ptr<Database> db = BuildScaleDb(30000);
  ExpectCollectRowsMatchScan(db->table("events"));
}

// A resident table keeps full blocks of kDefaultBlockRows rows and scans
// them in place, in order.
TEST(ResidentTableTest, AddRowFillsFullBlocks) {
  const Table gen("t", PairSchema(), 2 * kDefaultBlockRows + 5,
                  std::make_shared<PairSource>(3));
  const std::unique_ptr<Table> resident = ResidentCopy(gen);
  EXPECT_FALSE(resident->generated());
  EXPECT_EQ(resident->num_rows(), gen.num_rows());
  EXPECT_EQ(resident->num_blocks(), 3u);
  std::vector<uint64_t> block_sizes;
  resident->ScanBlocks([&](uint64_t first_row, const ColumnBlock& block) {
    EXPECT_EQ(first_row, block_sizes.size() * kDefaultBlockRows);
    block_sizes.push_back(block.num_rows());
  });
  ASSERT_EQ(block_sizes.size(), 3u);
  EXPECT_EQ(block_sizes[0], kDefaultBlockRows);
  EXPECT_EQ(block_sizes[1], kDefaultBlockRows);
  EXPECT_EQ(block_sizes[2], 5u);
  EXPECT_EQ(RowStrings(*resident), RowStrings(gen));
}

TEST(GeneratedTableDeathTest, CollectRowsChecksEveryIndexOrder) {
  // 5 follows 7 inside block 0: each index is checked against its
  // predecessor, on both kinds of table.
  const Table gen("t", PairSchema(), 100, std::make_shared<PairSource>(5));
  EXPECT_DEATH(gen.CollectRows("c", {3, 7, 5}), "sorted ascending");
  EXPECT_DEATH(ResidentCopy(gen)->CollectRows("c", {3, 7, 5}),
               "sorted ascending");
}

TEST(ResidentTableDeathTest, AddRowChecksTheSchema) {
  Table resident("r", PairSchema());
  EXPECT_DEATH(resident.AddRow({Value::Int64(1)}), "cols_.size");
  EXPECT_DEATH(resident.AddRow({Value::Int64(1), Value::Double(1.0)}),
               "is INT64");
  Table gen("t", PairSchema(), 10, std::make_shared<PairSource>(5));
  EXPECT_DEATH(gen.AddRow({Value::Int64(1), Value::Int64(1)}), "is generated");
}

TEST(ScaleWorkloadTest, GeneratedSampleMatchesResidentSample) {
  const std::unique_ptr<Database> db = BuildScaleDb(10000);
  const Table& gen = db->table("events");
  ASSERT_TRUE(gen.generated());
  const std::unique_ptr<Table> resident = ResidentCopy(gen);

  Random rng_gen(4242), rng_resident(4242);
  const std::unique_ptr<Table> from_gen =
      CreateUniformSample(gen, 0.03, /*min_rows=*/50, &rng_gen);
  const std::unique_ptr<Table> from_resident =
      CreateUniformSample(*resident, 0.03, /*min_rows=*/50, &rng_resident);

  ASSERT_GT(from_gen->num_rows(), 0u);
  EXPECT_EQ(RowStrings(*from_gen), RowStrings(*from_resident));
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

// A warm request is served both its estimation batches whole from the
// engine's cache and re-runs the greedy search, so its allocations count
// candidate generation, merging and what-if overhead, not planning or
// sampling. The budget sits within 10% of the measured count (12,982 in
// Release), so re-planning a repeated batch, an allocation per trie edge
// or per computed costing, or string work returning to the search fails
// here, not only in a timing.
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
  constexpr uint64_t kAllocBudget = 14250;
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

// Building tpch at 24,000 rows and computing every table's statistics
// leaves the rows resident as typed cells: at 8 B per numeric and 32 B per
// std::string cell they come to about 5.7 MiB.
TEST(MemoryGate, TpchDataAndStatsStayUnderTenMiBLive) {
  const long long before = LiveAllocBytes();
  workloads::WorkloadSpec spec;
  spec.name = "tpch";
  spec.rows = 24000;
  workloads::BuiltWorkload built;
  std::string error;
  ASSERT_TRUE(workloads::Build(spec, &built, &error)) << error;
  for (const Table* table : built.db->tables()) built.db->stats(table->name());
  const long long live = LiveAllocBytes() - before;
  std::printf("tpch at 24,000 rows with stats: %lld bytes live\n", live);
  EXPECT_LE(live, 10ll << 20);
}

// The first statistics of the 30,000-row events table profile a
// 16,384-row draw, kept as column blocks and freed before stats() returns.
TEST(MemoryGate, FirstEventsStatsFreeTheirDraw) {
  const std::unique_ptr<Database> db = BuildScaleDb(30000);
  const long long before = LiveAllocBytes();
  const long long start = ResetPeakAllocBytes();
  db->stats("events");
  const long long live = LiveAllocBytes() - before;
  const long long peak = PeakAllocBytes() - start;
  std::printf("first events stats: %lld bytes live, %lld peak\n", live, peak);
  EXPECT_LE(live, 512ll << 10);
  EXPECT_LE(peak, 6ll << 20);
}

}  // namespace
}  // namespace capd
