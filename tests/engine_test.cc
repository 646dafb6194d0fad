// AdvisorEngine service-API tests: the headline guarantee is that
// concurrent Tune() requests on one engine — shared samples, shared
// estimation cache, shared pools — are bit-identical (results AND rendered
// reports, bytes included) to running each request alone on a freshly
// hand-wired, uncached stack. Plus: strategy, budget and thread-count
// errors, cooperative cancellation, budget-mode edge cases (fraction vs
// bytes, 0% / 100% / 0 bytes pinning the negative-charge behavior of the
// paper's Example 1/2), and JSON goldens for all three report strategies
// on TPC-H.
//
// Regenerate the JSON goldens after an intentional change with:
//   CAPD_UPDATE_GOLDEN=1 ./build/engine_test
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/report.h"
#include "advisor/report_json.h"
#include "engine/advisor_engine.h"
#include "query/sql_parser.h"
#include "workloads/registry.h"

namespace capd {
namespace {

constexpr double kBudgetFrac = 0.15;
constexpr uint64_t kRows = 2000;

bool UpdateGoldenMode() {
  const char* env = std::getenv("CAPD_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string GoldenJsonPath(const std::string& name) {
  return std::string(CAPD_GOLDEN_DIR) + "/" + name + ".json";
}

// What a request would compute on a freshly wired stack — the reference
// the engine must reproduce to the bit. Mirrors the engine's per-request
// wiring (same default sample seed, strategy-resolved options) without any
// engine-owned shared state.
struct FreshRun {
  AdvisorResult result;
  std::string report;
  std::string json;
};

FreshRun RunOnFreshStack(const Database& db, const Workload& workload,
                         const std::string& strategy_name,
                         double budget_bytes) {
  const auto strategy = StrategyRegistry::Global().Find(strategy_name);
  EXPECT_NE(strategy, nullptr) << strategy_name;
  SampleManager samples(4242);
  MVRegistry mvs(db, &samples);
  WhatIfOptimizer optimizer(db, CostModelParams{});
  optimizer.set_mv_matcher(&mvs);
  const AdvisorOptions options = strategy->MakeOptions();
  SizeEstimator estimator(db, &mvs, ErrorModel(), options.size_options);
  Advisor advisor(db, optimizer, &estimator, &mvs, options);
  FreshRun run;
  run.result = strategy->Run(&advisor, workload, budget_bytes);
  run.report = RenderTuningReport(run.result, &mvs, budget_bytes);
  run.json = RenderTuningReportJson(run.result, &mvs, budget_bytes,
                                    strategy_name);
  return run;
}

void ExpectBitIdentical(const AdvisorResult& a, const AdvisorResult& b) {
  EXPECT_EQ(std::memcmp(&a.initial_cost, &b.initial_cost, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.final_cost, &b.final_cost, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.charged_bytes, &b.charged_bytes, sizeof(double)),
            0);
  ASSERT_EQ(a.config.size(), b.config.size());
  const auto& ia = a.config.indexes();
  const auto& ib = b.config.indexes();
  for (size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia[i].def.Signature(), ib[i].def.Signature()) << i;
    EXPECT_EQ(std::memcmp(&ia[i].bytes, &ib[i].bytes, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&ia[i].tuples, &ib[i].tuples, sizeof(double)), 0);
  }
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workloads::WorkloadSpec spec;
    spec.name = "tpch";
    spec.rows = kRows;
    std::string error;
    ASSERT_TRUE(workloads::Build(spec, &built_, &error)) << error;
  }

  double BudgetBytes() const {
    return kBudgetFrac * static_cast<double>(built_.db->BaseDataBytes());
  }

  TuningRequest MakeRequest(const std::string& strategy) const {
    TuningRequest request;
    request.workload = built_.workload;
    request.strategy = strategy;
    request.budget = TuningBudget::Fraction(kBudgetFrac);
    return request;
  }

  workloads::BuiltWorkload built_;
};

// The strategies the concurrency and golden tests cycle through (the three
// report strategies of the text goldens).
const char* const kStrategies[] = {"dtac-topk", "dtac-skyline", "staged:page"};

TEST_F(EngineTest, ConcurrentTuneBitIdenticalToFreshStacks) {
  // Reference runs, one per strategy, on fresh hand-wired stacks.
  std::map<std::string, FreshRun> fresh;
  for (const char* strategy : kStrategies) {
    fresh[strategy] = RunOnFreshStack(*built_.db, built_.workload, strategy,
                                      BudgetBytes());
  }

  for (const int clients : {1, 2, 4}) {
    AdvisorEngine engine(*built_.db);

    std::vector<TuningResponse> responses(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        responses[c] = engine.Tune(MakeRequest(kStrategies[c % 3]));
      });
    }
    for (std::thread& t : threads) t.join();

    for (int c = 0; c < clients; ++c) {
      const FreshRun& reference = fresh[kStrategies[c % 3]];
      SCOPED_TRACE(std::string(kStrategies[c % 3]) +
                   " clients=" + std::to_string(clients));
      ASSERT_TRUE(responses[c].ok()) << responses[c].error;
      ExpectBitIdentical(reference.result, responses[c].result);
      // Stronger than the result: the rendered bytes (which include the
      // cache counters) must not see the shared state either.
      EXPECT_EQ(reference.report, responses[c].report);
      EXPECT_EQ(reference.json, responses[c].json);
    }
  }
}

// Concurrent first requests on a freshly built Database: the lazily filled
// table statistics are computed under the requests themselves (run under
// TSan in CI). Each response must equal a serial reference computed on a
// second Database built from the same spec.
TEST(EngineFreshDatabaseTest, ConcurrentFirstTunesMatchSerialReferences) {
  workloads::WorkloadSpec spec;
  spec.name = "tpch";
  spec.rows = kRows;
  workloads::BuiltWorkload serial;
  workloads::BuiltWorkload fresh;
  std::string error;
  ASSERT_TRUE(workloads::Build(spec, &serial, &error)) << error;
  ASSERT_TRUE(workloads::Build(spec, &fresh, &error)) << error;
  auto request_for = [](const workloads::BuiltWorkload& built,
                        const char* strategy) {
    TuningRequest request;
    request.workload = built.workload;
    request.strategy = strategy;
    request.budget = TuningBudget::Fraction(kBudgetFrac);
    return request;
  };

  constexpr int kClients = 3;
  std::vector<TuningResponse> references;
  for (int c = 0; c < kClients; ++c) {
    AdvisorEngine engine(*serial.db);
    references.push_back(engine.Tune(request_for(serial, kStrategies[c])));
  }

  AdvisorEngine engine(*fresh.db);
  std::vector<TuningResponse> responses(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      responses[c] = engine.Tune(request_for(fresh, kStrategies[c]));
    });
  }
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE(kStrategies[c]);
    ASSERT_TRUE(references[c].ok()) << references[c].error;
    ASSERT_TRUE(responses[c].ok()) << responses[c].error;
    ExpectBitIdentical(references[c].result, responses[c].result);
    EXPECT_EQ(references[c].report, responses[c].report);
    EXPECT_EQ(references[c].json, responses[c].json);
  }
}

TEST_F(EngineTest, WarmEngineRendersIdenticalBytes) {
  // Request N is served from caches request N-1 filled; the rendered
  // report must not change (the estimation cache only serves SampleCF
  // leaves at the fraction a cold run picks; the cost cache is per
  // request).
  AdvisorEngine engine(*built_.db);
  const TuningResponse cold = engine.Tune(MakeRequest("dtac-skyline"));
  ASSERT_TRUE(cold.ok()) << cold.error;
  ASSERT_NE(engine.estimation_cache(), nullptr);
  EXPECT_GT(engine.estimation_cache()->size(), 0u);  // warmth is real
  const TuningResponse warm = engine.Tune(MakeRequest("dtac-skyline"));
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(cold.report, warm.report);
  EXPECT_EQ(cold.json, warm.json);
  // ... and a different strategy on the warm engine still matches its own
  // fresh-stack reference.
  const TuningResponse staged = engine.Tune(MakeRequest("staged:page"));
  ASSERT_TRUE(staged.ok()) << staged.error;
  const FreshRun reference = RunOnFreshStack(*built_.db, built_.workload,
                                             "staged:page", BudgetBytes());
  EXPECT_EQ(reference.report, staged.report);
}

TEST_F(EngineTest, UnknownStrategyErrorsCleanly) {
  AdvisorEngine engine(*built_.db);
  const TuningResponse response = engine.Tune(MakeRequest("dtac-quantum"));
  EXPECT_EQ(response.status, TuningResponse::Status::kError);
  EXPECT_NE(response.error.find("unknown strategy 'dtac-quantum'"),
            std::string::npos)
      << response.error;
  EXPECT_NE(response.error.find("dtac-topk"), std::string::npos)
      << "error should list known strategies: " << response.error;
  // The engine survives a failed resolution.
  EXPECT_TRUE(engine.Tune(MakeRequest("dtac-topk")).ok());
}

TEST_F(EngineTest, StrategyTableHoldsTheBuiltInPresets) {
  const auto& registry = StrategyRegistry::Global();
  const std::vector<std::string> names = {
      "dta",         "dtac-backtrack", "dtac-bitmap",
      "dtac-both",   "dtac-skyline",   "dtac-topk",
      "staged:none", "staged:page",    "staged:row"};
  EXPECT_EQ(registry.Names(), names);
  EXPECT_EQ(registry.Find("dtac-quantum"), nullptr);

  const std::map<std::string, AdvisorOptions (*)()> presets = {
      {"dta", &AdvisorOptions::DTA},
      {"dtac-backtrack", &AdvisorOptions::DTAcBacktrack},
      {"dtac-bitmap", &AdvisorOptions::DTAcBitmap},
      {"dtac-both", &AdvisorOptions::DTAcBoth},
      {"dtac-skyline", &AdvisorOptions::DTAcSkyline},
      {"dtac-topk", &AdvisorOptions::DTAcNone},
      {"staged:none", &AdvisorOptions::DTAcNone},
      {"staged:page", &AdvisorOptions::DTAcNone},
      {"staged:row", &AdvisorOptions::DTAcNone}};
  for (const auto& [name, preset] : presets) {
    const auto strategy = registry.Find(name);
    ASSERT_NE(strategy, nullptr) << name;
    const AdvisorOptions got = strategy->MakeOptions();
    const AdvisorOptions want = preset();
    EXPECT_EQ(got.selection, want.selection) << name;
    EXPECT_EQ(got.backtracking, want.backtracking) << name;
    EXPECT_EQ(got.enable_compression, want.enable_compression) << name;
    EXPECT_EQ(got.compression_variants, want.compression_variants) << name;
    EXPECT_EQ(got.size_options.enable_sort_order_deduction,
              want.size_options.enable_sort_order_deduction)
        << name;
  }

  // A staged name runs the staged baseline with its compression kind.
  const std::pair<const char*, CompressionKind> staged[] = {
      {"staged:none", CompressionKind::kNone},
      {"staged:row", CompressionKind::kRow},
      {"staged:page", CompressionKind::kPage}};
  for (const auto& [name, kind] : staged) {
    const FreshRun via_table =
        RunOnFreshStack(*built_.db, built_.workload, name, BudgetBytes());
    SampleManager samples(4242);
    MVRegistry mvs(*built_.db, &samples);
    WhatIfOptimizer optimizer(*built_.db, CostModelParams{});
    optimizer.set_mv_matcher(&mvs);
    const AdvisorOptions options = AdvisorOptions::DTAcNone();
    SizeEstimator estimator(*built_.db, &mvs, ErrorModel(),
                            options.size_options);
    Advisor advisor(*built_.db, optimizer, &estimator, &mvs, options);
    SCOPED_TRACE(name);
    ExpectBitIdentical(
        advisor.TuneStagedBaseline(built_.workload, BudgetBytes(), kind),
        via_table.result);
  }
}

TEST_F(EngineTest, InvalidBudgetErrors) {
  AdvisorEngine engine(*built_.db);
  TuningRequest request = MakeRequest("dtac-topk");
  request.budget = TuningBudget::Fraction(-0.1);
  EXPECT_EQ(engine.Tune(request).status, TuningResponse::Status::kError);
  request.budget = TuningBudget::Bytes(-1.0);
  EXPECT_EQ(engine.Tune(request).status, TuningResponse::Status::kError);
}

TEST_F(EngineTest, InvalidThreadCountErrors) {
  // Each count becomes a pool of that many OS threads; an unbounded one
  // would exhaust the process's threads and abort it.
  AdvisorEngine engine(*built_.db);
  TuningRequest search = MakeRequest("dtac-topk");
  search.search_threads = 1 << 20;
  const TuningResponse a = engine.Tune(search);
  EXPECT_EQ(a.status, TuningResponse::Status::kError);
  EXPECT_NE(a.error.find("search_threads"), std::string::npos) << a.error;
  EXPECT_FALSE(a.retryable);

  TuningRequest estimation = MakeRequest("dtac-topk");
  estimation.estimation_threads = 1 << 20;
  const TuningResponse b = engine.Tune(estimation);
  EXPECT_EQ(b.status, TuningResponse::Status::kError);
  EXPECT_NE(b.error.find("estimation_threads"), std::string::npos) << b.error;

  // The engine survives and serves a valid request.
  const TuningResponse ok = engine.Tune(MakeRequest("dtac-topk"));
  EXPECT_EQ(ok.status, TuningResponse::Status::kOk) << ok.error;
}

TEST_F(EngineTest, CancellationMidTuneReturnsFlaggedResponse) {
  AdvisorEngine engine(*built_.db);
  TuningRequest request = MakeRequest("dtac-skyline");
  CancellationToken token = request.cancel;
  std::vector<std::string> phases;
  request.progress = [&](const std::string& phase) {
    phases.push_back(phase);
    if (phase == "estimation") token.RequestCancel();
  };
  const TuningResponse response = engine.Tune(request);
  EXPECT_TRUE(response.cancelled());
  EXPECT_TRUE(response.result.cancelled);
  EXPECT_NE(response.json.find("\"cancelled\": true"), std::string::npos);
  // The run stopped right after the estimation phase: selection never ran.
  ASSERT_GE(phases.size(), 2u);
  EXPECT_EQ(phases.back(), "estimation");
  // A cancelled engine still serves the next request normally.
  EXPECT_TRUE(engine.Tune(MakeRequest("dtac-skyline")).ok());
}

TEST_F(EngineTest, CancellationBeforeStartAndMidEnumeration) {
  AdvisorEngine engine(*built_.db);
  // Pre-cancelled: flagged immediately, nothing recommended.
  TuningRequest pre = MakeRequest("dtac-topk");
  pre.cancel.RequestCancel();
  const TuningResponse early = engine.Tune(pre);
  EXPECT_TRUE(early.cancelled());
  EXPECT_EQ(early.result.config.size(), 0u);
  // Cancelled between selection and enumeration: the partial result still
  // carries coherent costs (Enumerate falls through to the final costing).
  TuningRequest mid = MakeRequest("dtac-topk");
  CancellationToken token = mid.cancel;
  mid.progress = [&](const std::string& phase) {
    if (phase == "merging") token.RequestCancel();
  };
  const TuningResponse response = engine.Tune(mid);
  EXPECT_TRUE(response.cancelled());
}

TEST_F(EngineTest, BudgetFractionAndBytesAgree) {
  AdvisorEngine engine(*built_.db);
  TuningRequest by_fraction = MakeRequest("dtac-skyline");
  TuningRequest by_bytes = MakeRequest("dtac-skyline");
  by_bytes.budget = TuningBudget::Bytes(BudgetBytes());
  const TuningResponse a = engine.Tune(by_fraction);
  const TuningResponse b = engine.Tune(by_bytes);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(std::memcmp(&a.budget_bytes, &b.budget_bytes, sizeof(double)), 0);
  ExpectBitIdentical(a.result, b.result);
  EXPECT_EQ(a.report, b.report);
}

TEST_F(EngineTest, ZeroAndFullBudgetEdges) {
  AdvisorEngine engine(*built_.db);

  // 0% and absolute-0 budgets are the same request; both are meaningful:
  // compressed clustered indexes replace the heap, so ChargedBytes can go
  // negative and DTAc frees space with no budget at all (Example 1/2).
  TuningRequest zero_frac = MakeRequest("dtac-both");
  zero_frac.budget = TuningBudget::Fraction(0.0);
  TuningRequest zero_bytes = MakeRequest("dtac-both");
  zero_bytes.budget = TuningBudget::Bytes(0.0);
  const TuningResponse zf = engine.Tune(zero_frac);
  const TuningResponse zb = engine.Tune(zero_bytes);
  ASSERT_TRUE(zf.ok() && zb.ok());
  ExpectBitIdentical(zf.result, zb.result);
  EXPECT_LE(zf.result.charged_bytes, 1.0);
  EXPECT_GT(zf.result.config.size(), 0u)
      << "DTAc should free space via compression even at a 0-byte budget";
  EXPECT_LT(zf.result.charged_bytes, 0.0)
      << "the recommended design should charge negative bytes";

  // 100% of the base data: simply a roomy budget; the charge respects it.
  TuningRequest full = MakeRequest("dtac-both");
  full.budget = TuningBudget::Fraction(1.0);
  const TuningResponse f = engine.Tune(full);
  ASSERT_TRUE(f.ok());
  EXPECT_LE(f.result.charged_bytes, f.budget_bytes + 1.0);
  EXPECT_GE(f.result.improvement_percent(),
            zf.result.improvement_percent() - 1e-9)
      << "a roomy budget can only help";
}

TEST_F(EngineTest, RequestKnobsOverrideEngineDefaults) {
  EngineOptions options;
  options.search_threads = 1;
  options.estimation_threads = 1;
  AdvisorEngine engine(*built_.db, options);
  const FreshRun reference = RunOnFreshStack(*built_.db, built_.workload,
                                             "dtac-skyline", BudgetBytes());
  TuningRequest request = MakeRequest("dtac-skyline");
  request.search_threads = 4;
  request.estimation_threads = 2;
  const TuningResponse response = engine.Tune(request);
  ASSERT_TRUE(response.ok()) << response.error;
  // Thread counts never change the recommendation.
  ExpectBitIdentical(reference.result, response.result);
}

TEST_F(EngineTest, MvEnabledRequestsDoNotLeakAcrossRequests) {
  // MV candidates are named after query ids ("mv_Q1", ...), and MV-enabled
  // runs Register() them in the registry they tune against. Two requests
  // whose workloads reuse the same statement ids for different queries
  // must therefore not share a registry — request 2 would silently tune
  // against request 1's MV definitions. The engine isolates MV-enabled
  // requests in a per-request registry; this pins it.
  const auto& stmts = built_.workload.statements;
  ASSERT_GE(stmts.size(), 12u);
  Workload first;
  Workload second;
  for (size_t i = 0; i < 6; ++i) {
    first.statements.push_back(stmts[i]);
    Statement renamed = stmts[6 + i];
    renamed.id = stmts[i].id;  // collide ids across the two requests
    second.statements.push_back(renamed);
  }

  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  options.enable_mv = true;

  AdvisorEngine engine(*built_.db);
  engine.TuneWithOptions(first, BudgetBytes(), options);  // pollute, maybe
  const AdvisorResult served =
      engine.TuneWithOptions(second, BudgetBytes(), options);

  // Reference: the second request alone on a fresh hand-wired stack.
  SampleManager samples(4242);
  MVRegistry mvs(*built_.db, &samples);
  WhatIfOptimizer optimizer(*built_.db, CostModelParams{});
  optimizer.set_mv_matcher(&mvs);
  SizeEstimator estimator(*built_.db, &mvs, ErrorModel(),
                          options.size_options);
  Advisor advisor(*built_.db, optimizer, &estimator, &mvs, options);
  const AdvisorResult fresh = advisor.Tune(second, BudgetBytes());

  ExpectBitIdentical(fresh, served);
}

// A CHAR(300) column is wider than the codecs' NS field limit: structures
// storing it must stay uncompressed instead of aborting the process, and the
// rest of the design space is tuned as usual. Covers both ways a compressed
// structure arises: DTAc's candidate variants and the staged baseline's
// recompression of its stage-1 design.
class EngineWideColumnTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineWideColumnTest, WideColumnTunesWithoutAbort) {
  Database db;
  auto sales = std::make_unique<Table>(
      "sales", Schema({{"order_id", ValueType::kInt64, 8},
                       {"ship_date", ValueType::kDate, 8},
                       {"state", ValueType::kString, 300},
                       {"price", ValueType::kDouble, 8},
                       {"discount", ValueType::kDouble, 8}}));
  Random rng(42);
  const char* kStates[] = {"CA", "NY", "TX", "WA"};
  for (int i = 0; i < 4000; ++i) {
    sales->AddRow(
        {Value::Int64(i), Value::Date(rng.Uniform(10957, 12000)),
         Value::String(kStates[rng.Next(4)]),
         Value::Double(static_cast<double>(rng.Uniform(1, 500))),
         Value::Double(0.01 * static_cast<double>(rng.Uniform(0, 30)))});
  }
  db.AddTable(std::move(sales));

  TuningRequest request;
  for (const char* sql :
       {"SELECT SUM(price) FROM sales WHERE ship_date BETWEEN "
        "DATE '2001-01-01' AND DATE '2001-12-31' AND state = 'CA'",
        "SELECT state, SUM(price), COUNT(*) FROM sales GROUP BY state",
        "SELECT ship_date, SUM(discount) FROM sales WHERE price >= 250 "
        "GROUP BY ship_date",
        "INSERT INTO sales VALUES 400 ROWS"}) {
    std::string error;
    const std::optional<Statement> stmt = ParseSql(sql, db, &error);
    ASSERT_TRUE(stmt.has_value()) << error;
    request.workload.statements.push_back(*stmt);
  }
  request.strategy = GetParam();
  request.budget = TuningBudget::Fraction(0.25);

  AdvisorEngine engine(db);
  const TuningResponse response = engine.Tune(request);
  ASSERT_EQ(response.status, TuningResponse::Status::kOk) << response.error;
  const AdvisorResult& result = response.result;
  EXPECT_GT(result.initial_cost, 0.0);
  EXPECT_LE(result.final_cost, result.initial_cost);
  EXPECT_FALSE(result.config.indexes().empty());
  EXPECT_NE(response.report.find("sales"), std::string::npos);
  const Schema& schema = db.table("sales").schema();
  for (const PhysicalIndexEstimate& idx : result.config.indexes()) {
    const std::vector<std::string> stored = idx.def.StoredColumns(schema);
    if (std::find(stored.begin(), stored.end(), "state") != stored.end()) {
      EXPECT_EQ(idx.def.compression, CompressionKind::kNone)
          << idx.def.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, EngineWideColumnTest,
                         ::testing::Values("dtac-both", "staged:row",
                                           "staged:page"));

TEST_F(EngineTest, JsonReportShapeBasics) {
  AdvisorEngine engine(*built_.db);
  const TuningResponse response = engine.Tune(MakeRequest("dtac-skyline"));
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_NE(response.json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(response.json.find("\"strategy\": \"dtac-skyline\""),
            std::string::npos);
  EXPECT_NE(response.json.find("\"objects\": ["), std::string::npos);
  EXPECT_EQ(response.json.find("NaN"), std::string::npos);
  EXPECT_EQ(response.json.back(), '\n');
}

// JSON goldens: the structured rendering of all three report strategies on
// TPC-H, byte-for-byte (the JSON twin of golden_report_test).
class JsonGoldenTest : public EngineTest,
                       public ::testing::WithParamInterface<const char*> {};

TEST_P(JsonGoldenTest, JsonMatchesGoldenByteForByte) {
  const std::string strategy = GetParam();
  std::string tag = "tpch_" + strategy;
  for (char& c : tag) {
    if (c == '-' || c == ':') c = '_';
  }

  AdvisorEngine engine(*built_.db);
  const TuningResponse response = engine.Tune(MakeRequest(strategy));
  ASSERT_TRUE(response.ok()) << response.error;
  ASSERT_FALSE(response.json.empty());

  const std::string path = GoldenJsonPath(tag);
  if (UpdateGoldenMode()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << response.json;
    std::fprintf(stderr, "[golden] updated %s\n", path.c_str());
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — regenerate with CAPD_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(response.json, expected.str())
      << "JSON report drifted from " << path
      << " — if intentional, regenerate with CAPD_UPDATE_GOLDEN=1 and "
         "review the diff (schema changes must bump kTuningReportJsonVersion)";
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, JsonGoldenTest,
                         ::testing::ValuesIn(kStrategies),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == ':') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace capd
