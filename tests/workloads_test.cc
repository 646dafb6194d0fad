// Generator invariants: referential integrity, determinism, skew, the
// statistical properties the experiments depend on, and pinned hashes of
// every generated cell.
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stats/sampler.h"
#include "storage/encoding.h"
#include "workloads/registry.h"
#include "workloads/sales.h"
#include "workloads/tpcds_lite.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

// Every row of `table`, in order.
std::vector<Row> AllRows(const Table& table) {
  std::vector<Row> rows;
  table.ScanRows([&](uint64_t, const Row& row) { rows.push_back(row); });
  return rows;
}

// Every FK value in `fact.fk_column` must exist in `dim.key_column`.
void ExpectFkIntegrity(const Database& db, const ForeignKey& fk) {
  const Table& fact = db.table(fk.fact_table);
  const Table& dim = db.table(fk.dim_table);
  std::set<int64_t> keys;
  const size_t kpos = dim.schema().ColumnIndex(fk.key_column);
  for (const Row& r : AllRows(dim)) keys.insert(r[kpos].AsInt64());
  const size_t fpos = fact.schema().ColumnIndex(fk.fk_column);
  for (const Row& r : AllRows(fact)) {
    ASSERT_TRUE(keys.count(r[fpos].AsInt64()))
        << fk.fact_table << "." << fk.fk_column << " dangling value "
        << r[fpos].AsInt64();
  }
}

TEST(TpchGenerator, RowCountsScale) {
  Database db;
  tpch::Options opt;
  opt.lineitem_rows = 4000;
  tpch::Build(&db, opt);
  EXPECT_EQ(db.table("lineitem").num_rows(), 4000u);
  EXPECT_EQ(db.table("orders").num_rows(), 1000u);
  EXPECT_GT(db.table("part").num_rows(), 0u);
  EXPECT_EQ(db.table("nation").num_rows(), 25u);
}

TEST(TpchGenerator, ForeignKeyIntegrity) {
  Database db;
  tpch::Options opt;
  opt.lineitem_rows = 3000;
  tpch::Build(&db, opt);
  for (const ForeignKey& fk : db.foreign_keys()) ExpectFkIntegrity(db, fk);
}

TEST(TpchGenerator, DeterministicUnderSeed) {
  Database a, b;
  tpch::Options opt;
  opt.lineitem_rows = 1000;
  tpch::Build(&a, opt);
  tpch::Build(&b, opt);
  const std::vector<Row> ra = AllRows(a.table("lineitem"));
  const std::vector<Row> rb = AllRows(b.table("lineitem"));
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); i += 97) {
    for (size_t c = 0; c < ra[i].size(); ++c) {
      EXPECT_EQ(ra[i][c].Compare(rb[i][c]), 0);
    }
  }
}

TEST(TpchGenerator, SeedChangesData) {
  Database a, b;
  tpch::Options opt;
  opt.lineitem_rows = 1000;
  tpch::Build(&a, opt);
  opt.seed = 1;
  tpch::Build(&b, opt);
  const std::vector<Row> ra = AllRows(a.table("lineitem"));
  const std::vector<Row> rb = AllRows(b.table("lineitem"));
  int diffs = 0;
  for (size_t i = 0; i < 100; ++i) {
    if (ra[i][4].AsInt64() != rb[i][4].AsInt64()) ++diffs;
  }
  EXPECT_GT(diffs, 30);
}

TEST(TpchGenerator, SkewConcentratesPartKeys) {
  Database flat, skewed;
  tpch::Options opt;
  opt.lineitem_rows = 6000;
  tpch::Build(&flat, opt);
  opt.skew_z = 2.0;
  tpch::Build(&skewed, opt);
  auto top_share = [](const Database& db) {
    std::map<int64_t, int> counts;
    const Table& li = db.table("lineitem");
    const size_t p = li.schema().ColumnIndex("l_partkey");
    for (const Row& r : AllRows(li)) counts[r[p].AsInt64()]++;
    int best = 0;
    for (const auto& [k, c] : counts) best = std::max(best, c);
    return static_cast<double>(best) / static_cast<double>(li.num_rows());
  };
  EXPECT_GT(top_share(skewed), 4.0 * top_share(flat));
}

TEST(TpchGenerator, ShipmodeInstructCorrelated) {
  Database db;
  tpch::Options opt;
  opt.lineitem_rows = 4000;
  tpch::Build(&db, opt);
  const Table& li = db.table("lineitem");
  const size_t mode = li.schema().ColumnIndex("l_shipmode");
  const size_t instruct = li.schema().ColumnIndex("l_shipinstruct");
  std::set<std::pair<std::string, std::string>> pairs;
  li.ScanRows([&](uint64_t, const Row& r) {
    pairs.emplace(r[mode].AsString(), r[instruct].AsString());
  });
  const uint64_t combos = pairs.size();
  const TableStats& stats = db.stats("lineitem");
  const uint64_t modes = stats.column("l_shipmode").distinct;
  const uint64_t instructs = stats.column("l_shipinstruct").distinct;
  // Strong correlation: far fewer combos than the independence product.
  EXPECT_LT(combos, modes * instructs * 3 / 4);
}

TEST(TpchGenerator, DatesInRange) {
  Database db;
  tpch::Options opt;
  opt.lineitem_rows = 2000;
  tpch::Build(&db, opt);
  const Table& li = db.table("lineitem");
  const size_t ship = li.schema().ColumnIndex("l_shipdate");
  const size_t receipt = li.schema().ColumnIndex("l_receiptdate");
  for (const Row& r : AllRows(li)) {
    EXPECT_GE(r[ship].AsInt64(), 8766);    // >= 1994-01-01
    EXPECT_LT(r[ship].AsInt64(), 10957);   // < 2000-01-01
    EXPECT_GT(r[receipt].AsInt64(), r[ship].AsInt64());
  }
}

TEST(SalesGenerator, SchemaAndIntegrity) {
  Database db;
  sales::Options opt;
  opt.fact_rows = 3000;
  sales::Build(&db, opt);
  EXPECT_EQ(db.table("sales").num_rows(), 3000u);
  for (const ForeignKey& fk : db.foreign_keys()) ExpectFkIntegrity(db, fk);
  // Denormalized low-cardinality strings on the fact table (the property
  // that makes Sales compression-friendly).
  EXPECT_LE(db.stats("sales").column("state").distinct, 10u);
  EXPECT_LE(db.stats("sales").column("channel").distinct, 4u);
}

TEST(SalesGenerator, FiftyQueriesTwoBulkLoads) {
  Database db;
  sales::Options opt;
  opt.fact_rows = 2000;
  sales::Build(&db, opt);
  const Workload w = sales::MakeWorkload(db, opt);
  size_t selects = 0, inserts = 0;
  for (const Statement& s : w.statements) {
    if (s.type == StatementType::kSelect) ++selects;
    if (s.type == StatementType::kInsert) ++inserts;
  }
  EXPECT_EQ(selects, 50u);
  EXPECT_EQ(inserts, 2u);
}

TEST(SalesGenerator, ProductPopularitySkewed) {
  Database db;
  sales::Options opt;
  opt.fact_rows = 5000;
  sales::Build(&db, opt);
  std::map<int64_t, int> counts;
  const Table& s = db.table("sales");
  const size_t p = s.schema().ColumnIndex("product_key_fk");
  for (const Row& r : AllRows(s)) counts[r[p].AsInt64()]++;
  int best = 0;
  for (const auto& [k, c] : counts) best = std::max(best, c);
  // Zipf(1.0): the top product should far exceed the uniform share.
  EXPECT_GT(best, static_cast<int>(5 * 5000 / counts.size()));
}

TEST(TpcdsGenerator, BuildsAndHasIntegrity) {
  Database db;
  tpcds::Options opt;
  opt.store_sales_rows = 2000;
  tpcds::Build(&db, opt);
  EXPECT_EQ(db.table("store_sales").num_rows(), 2000u);
  for (const ForeignKey& fk : db.foreign_keys()) ExpectFkIntegrity(db, fk);
}

TEST(WorkloadShape, TpchBudgetsAreMeaningful) {
  // The experiment budgets (3%..100% of base bytes) must be non-trivial:
  // base data must be at least tens of pages.
  Database db;
  tpch::Options opt;
  opt.lineitem_rows = 6000;
  tpch::Build(&db, opt);
  EXPECT_GT(db.BaseDataBytes(), 50u * kPageSize);
}

// FNV-1a over the EncodeField bytes of every cell, read in row order.
uint64_t TableHash(const Table& table) {
  const Schema& schema = table.schema();
  uint64_t hash = 0xcbf29ce484222325ull;
  std::string field;
  table.ScanRows([&](uint64_t, const Row& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      field.clear();
      EncodeField(row[c], schema.column(c), &field);
      for (const char byte : field) {
        hash ^= static_cast<unsigned char>(byte);
        hash *= 0x100000001b3ull;
      }
    }
  });
  return hash;
}

workloads::BuiltWorkload BuildSpec(const char* name, uint64_t rows,
                                   uint64_t seed, double skew_z) {
  workloads::WorkloadSpec spec;
  spec.name = name;
  spec.rows = rows;
  spec.seed = seed;
  spec.skew_z = skew_z;
  workloads::BuiltWorkload built;
  std::string error;
  EXPECT_TRUE(workloads::Build(spec, &built, &error)) << error;
  return built;
}

// Every generated cell is pinned: storage and RNG rewrites must leave each
// byte where it was. tpch draws through ZipfGenerator only when skewed.
TEST(GeneratedDataTest, EveryTableHashIsPinned) {
  struct Pinned {
    const char* table;
    uint64_t hash;
  };
  struct Case {
    const char* workload;
    uint64_t rows;
    uint64_t seed;  // 0 = the workload's default
    double skew_z;
    std::vector<Pinned> tables;  // in Database::tables() order
  };
  const Case kCases[] = {
      {"scale",
       30000,
       7,
       0.0,
       {{"devices", 0x96a89ffba105cb2cull}, {"events", 0x5674d3a148312ee7ull}}},
      {"tpch",
       2000,
       0,
       0.0,
       {{"customer", 0xb16a55725761edfeull},
        {"lineitem", 0x5fa1c706674c3c9eull},
        {"nation", 0x678618159908c066ull},
        {"orders", 0xd9aa6e8df8be8665ull},
        {"part", 0xdd80f740148b88eaull},
        {"supplier", 0x508106c6a59515b4ull}}},
      {"tpch",
       2000,
       0,
       1.0,
       {{"customer", 0xb16a55725761edfeull},
        {"lineitem", 0x60ba52db7d3e207dull},
        {"nation", 0x678618159908c066ull},
        {"orders", 0x5209847dd2529753ull},
        {"part", 0xdd80f740148b88eaull},
        {"supplier", 0x508106c6a59515b4ull}}},
      {"sales",
       2000,
       0,
       0.0,
       {{"products", 0x40b5ea740f7c4114ull},
        {"sales", 0x2ce62c1d477776b4ull},
        {"stores", 0xef6f3696789677e1ull}}},
      {"tpcds-lite",
       2000,
       0,
       0.0,
       {{"item", 0xa5852889a32ed549ull},
        {"store", 0x2efebfbcf144e5deull},
        {"store_sales", 0xbb486f6eaffc77eaull}}},
  };
  for (const Case& c : kCases) {
    const workloads::BuiltWorkload built =
        BuildSpec(c.workload, c.rows, c.seed, c.skew_z);
    const std::vector<const Table*> tables = built.db->tables();
    ASSERT_EQ(tables.size(), c.tables.size()) << c.workload;
    for (size_t i = 0; i < tables.size(); ++i) {
      EXPECT_EQ(tables[i]->name(), c.tables[i].table);
      EXPECT_EQ(TableHash(*tables[i]), c.tables[i].hash)
          << c.workload << " skew_z=" << c.skew_z << " table "
          << c.tables[i].table;
    }
  }
}

// FNV-1a over the little-endian bytes of `v`.
void MixHash(uint64_t v, uint64_t* hash) {
  for (int shift = 0; shift < 64; shift += 8) {
    *hash ^= (v >> shift) & 0xff;
    *hash *= 0x100000001b3ull;
  }
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// FNV-1a over every column's statistics, in schema order: row and
// distinct counts, the bits of the key range and leading-zero average, the
// histogram's row total and its SelectivityLe at 17 evenly spaced keys.
uint64_t StatsHash(const Database& db, const Table& table) {
  const TableStats& stats = db.stats(table.name());
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const Column& col : table.schema().columns()) {
    const ColumnStats& cs = stats.column(col.name);
    MixHash(cs.num_rows, &hash);
    MixHash(cs.distinct, &hash);
    MixHash(DoubleBits(cs.min_key), &hash);
    MixHash(DoubleBits(cs.max_key), &hash);
    MixHash(DoubleBits(cs.avg_leading_zero_bytes), &hash);
    MixHash(cs.histogram.total_rows(), &hash);
    for (int i = 0; i <= 16; ++i) {
      const double key = cs.min_key + (cs.max_key - cs.min_key) * i / 16.0;
      MixHash(DoubleBits(cs.histogram.SelectivityLe(key)), &hash);
    }
  }
  return hash;
}

// The statistics of every table EveryTableHashIsPinned covers. scale's
// 30,000 events rows exceed TableStats::kSampledStatsRows, so its events
// statistics pin the 16,384-row stats draw; every other table is profiled
// over all of its rows.
TEST(GeneratedDataTest, EveryTableStatsArePinned) {
  struct Pinned {
    const char* table;
    uint64_t hash;
  };
  struct Case {
    const char* workload;
    uint64_t rows;
    uint64_t seed;  // 0 = the workload's default
    double skew_z;
    std::vector<Pinned> tables;  // in Database::tables() order
  };
  const Case kCases[] = {
      {"scale",
       30000,
       7,
       0.0,
       {{"devices", 0x663e9409666479edull},
        {"events", 0x406a6bf03b6ef018ull}}},
      {"tpch",
       2000,
       0,
       0.0,
       {{"customer", 0x3b31f83f1f0400faull},
        {"lineitem", 0xf508d20d5f57b5e2ull},
        {"nation", 0x8e03f5871ddd0161ull},
        {"orders", 0xf4dc2d22a348bdd0ull},
        {"part", 0x302dd82a4f99ede3ull},
        {"supplier", 0x4d87bdb501dc5433ull}}},
      {"tpch",
       2000,
       0,
       1.0,
       {{"customer", 0x3b31f83f1f0400faull},
        {"lineitem", 0x8ed17292a7397e9bull},
        {"nation", 0x8e03f5871ddd0161ull},
        {"orders", 0x56f7201dd09c8ff5ull},
        {"part", 0x302dd82a4f99ede3ull},
        {"supplier", 0x4d87bdb501dc5433ull}}},
      {"sales",
       2000,
       0,
       0.0,
       {{"products", 0x3517ed12c6bf5d9cull},
        {"sales", 0xa1563f2cdaf702ccull},
        {"stores", 0xb15cb5451412a635ull}}},
      {"tpcds-lite",
       2000,
       0,
       0.0,
       {{"item", 0x670a29ba040d4b25ull},
        {"store", 0x5f9545a2694d51c2ull},
        {"store_sales", 0x47126a4f0a0ab956ull}}},
  };
  for (const Case& c : kCases) {
    const workloads::BuiltWorkload built =
        BuildSpec(c.workload, c.rows, c.seed, c.skew_z);
    const std::vector<const Table*> tables = built.db->tables();
    ASSERT_EQ(tables.size(), c.tables.size()) << c.workload;
    for (size_t i = 0; i < tables.size(); ++i) {
      EXPECT_EQ(tables[i]->name(), c.tables[i].table);
      const uint64_t hash = StatsHash(*built.db, *tables[i]);
      EXPECT_EQ(hash, c.tables[i].hash)
          << c.workload << " skew_z=" << c.skew_z << " table "
          << c.tables[i].table << " stats hash 0x" << std::hex << hash;
    }
  }
}

// The 1% events sample a scale-cold request draws (e2ebench's sample seed
// is the workload seed ^ 0xabcd).
TEST(GeneratedDataTest, EventsSampleHashIsPinned) {
  const workloads::BuiltWorkload built = BuildSpec("scale", 30000, 7, 0.0);
  SampleManager samples(7 ^ 0xabcd);
  const Table& sample = samples.GetSample(built.db->table("events"), 0.01);
  EXPECT_EQ(sample.num_rows(), 300u);
  EXPECT_EQ(TableHash(sample), 0xfdfa6855e58891caull);
}

}  // namespace
}  // namespace capd
