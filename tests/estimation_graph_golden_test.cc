// Golden dump of the estimation graph (Section 5.2): for each pinned target
// batch, every node (signature, target/existing flags) and every deduction
// (type, parent, ordered children) in insertion order, then — after Greedy
// at each default sampling fraction — every node's state, chosen
// deduction, sampling cost and composed error, with doubles printed to the
// bit. The greedy breaks ties on node and deduction order, so this pins the
// graph's construction order as well as its plans.
//
// Batches: the compressed dtac-both candidates of tpch, sales and
// tpcds-lite (the initial batch and the merged batch), the tpch batch once
// more with sort-order deduction on, and a synthetic 70-column table whose
// permuted and subset indexes sit on columns past position 64.
//
// Regenerate after an intentional change with:
//   CAPD_UPDATE_GOLDEN=1 ./build/estimation_graph_golden_test
// and review the tests/golden/ diff like any other code change.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "engine/advisor_engine.h"
#include "estimator/estimation_graph.h"
#include "query/sql_parser.h"
#include "workloads/registry.h"

namespace capd {
namespace {

constexpr uint64_t kSampleSeed = 4242;
constexpr int kWideColumns = 70;

bool UpdateGoldenMode() {
  const char* env = std::getenv("CAPD_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string Bits(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* TypeName(DeductionType type) {
  switch (type) {
    case DeductionType::kColSet:
      return "ColSet";
    case DeductionType::kColExt:
      return "ColExt";
    case DeductionType::kSortOrder:
      return "SortOrder";
  }
  return "?";
}

const char* StateName(NodeState state) {
  switch (state) {
    case NodeState::kNone:
      return "N";
    case NodeState::kDeduced:
      return "D";
    case NodeState::kSampled:
      return "S";
  }
  return "?";
}

// Builds the graph for `targets` and dumps it after Greedy at each default
// fraction.
std::string DumpGraph(const std::string& title, const Database& db,
                      const std::vector<IndexDef>& targets,
                      bool sort_order) {
  SampleManager samples(kSampleSeed);
  TableSampleSource source(db, &samples);
  EstimationGraph graph(db, &source, ErrorModel());
  graph.set_enable_sort_order(sort_order);
  graph.AddTargets(targets);

  std::ostringstream os;
  os << "== " << title << ": " << targets.size() << " targets, "
     << graph.nodes().size() << " nodes, " << graph.deductions().size()
     << " deductions\n";
  for (size_t i = 0; i < graph.nodes().size(); ++i) {
    const IndexNode& node = graph.nodes()[i];
    os << "node " << i << " " << (node.is_target ? "T" : "-")
       << (node.is_existing ? "E" : "-") << " " << node.def.Signature()
       << "\n";
  }
  for (size_t d = 0; d < graph.deductions().size(); ++d) {
    const DeductionNode& ded = graph.deductions()[d];
    os << "ded " << d << " " << TypeName(ded.type) << " " << ded.parent
       << " <-";
    for (size_t c : ded.children) os << " " << c;
    os << "\n";
  }
  const SizeEstimationOptions defaults;
  for (double f : defaults.fractions) {
    const double cost = graph.Greedy(f, defaults.e, defaults.q);
    os << "-- greedy f=" << Bits(f) << " cost=" << Bits(cost)
       << " satisfies=" << graph.AssignmentSatisfies(defaults.e, defaults.q, f)
       << " sampled=" << graph.NumSampled()
       << " deduced=" << graph.NumDeduced()
       << " sort_order_deduced=" << graph.NumSortOrderDeduced() << "\n";
    for (size_t i = 0; i < graph.nodes().size(); ++i) {
      const IndexNode& node = graph.nodes()[i];
      os << i << " " << StateName(node.state) << " pages="
         << Bits(node.cost_pages);
      // An unknown node has no deduction and a constant error.
      if (node.state != NodeState::kNone) {
        const ErrorStats err = graph.NodeError(i, f);
        os << " ded=" << node.chosen_deduction << " err=" << Bits(err.bias)
           << "," << Bits(err.variance);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::vector<IndexDef> Compressed(const std::vector<IndexDef>& defs) {
  std::vector<IndexDef> out;
  for (const IndexDef& def : defs) {
    if (def.compression != CompressionKind::kNone) out.push_back(def);
  }
  return out;
}

// The dtac-both candidate batches of one workload at golden scale: the
// initial compressed candidates and the compressed merged candidates built
// from the skyline selection over them.
struct Batches {
  std::vector<IndexDef> initial;
  std::vector<IndexDef> merged;
};

Batches DtacBothBatches(const workloads::BuiltWorkload& built) {
  const AdvisorOptions options = AdvisorOptions::DTAcBoth();
  const WhatIfOptimizer optimizer(*built.db, CostModelParams{});
  SampleManager samples(kSampleSeed);
  TableSampleSource source(*built.db, &samples);
  SizeEstimator sizes(*built.db, &source, ErrorModel(),
                      options.size_options);
  Advisor advisor(*built.db, optimizer, &sizes, nullptr, options);
  CandidateGenerator generator(*built.db, optimizer, nullptr, options);

  const std::vector<IndexDef> candidates =
      generator.GenerateForWorkload(built.workload);
  const std::map<std::string, PhysicalIndexEstimate> estimates =
      advisor.EstimateSizes(candidates, nullptr);
  CandidateIds ids(optimizer, built.workload);
  for (const auto& [signature, est] : estimates) ids.Intern(signature, est);
  std::vector<IndexDef> selected;
  for (const CandidateIds::Id id :
       advisor.SelectCandidates(candidates, ids, nullptr, nullptr)) {
    selected.push_back(ids.estimate(id).def);
  }
  Batches batches;
  batches.initial = Compressed(candidates);
  batches.merged = Compressed(generator.MergeCandidates(selected));
  return batches;
}

workloads::BuiltWorkload BuildWorkload(const std::string& name) {
  workloads::WorkloadSpec spec;
  spec.name = name;
  spec.rows = 2000;
  workloads::BuiltWorkload built;
  std::string error;
  EXPECT_TRUE(workloads::Build(spec, &built, &error)) << error;
  return built;
}

std::string WideColumn(int i) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "c%02d", i);
  return buf;
}

// A 400-row table of 70 small-domain integer columns; column i cycles
// through 3 + (i % 17) values so the codecs see varied duplication.
std::unique_ptr<Database> BuildWideDb() {
  std::vector<Column> columns;
  for (int i = 0; i < kWideColumns; ++i) {
    columns.push_back({WideColumn(i), ValueType::kInt64, 8});
  }
  auto table = std::make_unique<Table>("wide", Schema(std::move(columns)));
  for (int r = 0; r < 400; ++r) {
    Row row;
    for (int i = 0; i < kWideColumns; ++i) {
      row.push_back(Value::Int64((r * (i + 1) + i) % (3 + i % 17)));
    }
    table->AddRow(std::move(row));
  }
  auto db = std::make_unique<Database>();
  db->AddTable(std::move(table));
  return db;
}

IndexDef WideIdx(std::vector<int> keys, CompressionKind kind,
                 bool clustered = false) {
  IndexDef def;
  def.object = "wide";
  for (int k : keys) def.key_columns.push_back(WideColumn(k));
  def.clustered = clustered;
  def.compression = kind;
  return def;
}

// Permutations and subsets on columns 64..69, keys mixing both sides of
// position 64, a clustered index storing all 70 columns, and partial
// indexes under two filters (ColExt pairs only equal filters).
std::vector<IndexDef> WideTargets() {
  std::vector<IndexDef> targets;
  for (CompressionKind kind : {CompressionKind::kRow, CompressionKind::kPage}) {
    targets.push_back(WideIdx({65, 66, 67}, kind));
    targets.push_back(WideIdx({67, 65, 66}, kind));
    targets.push_back(WideIdx({66, 67, 65}, kind));
    targets.push_back(WideIdx({65, 66}, kind));
    targets.push_back(WideIdx({66, 69}, kind));
    targets.push_back(WideIdx({68}, kind));
    targets.push_back(WideIdx({3, 65}, kind));
    targets.push_back(WideIdx({3, 65, 69}, kind));
    targets.push_back(WideIdx({66}, kind, /*clustered=*/true));
    IndexDef partial = WideIdx({64, 65, 66}, kind);
    partial.filter = ColumnFilter{"c00", FilterOp::kLt, Value::Int64(2), {}};
    targets.push_back(partial);
    partial.key_columns = {"c64", "c65"};
    targets.push_back(partial);
    partial.filter->lo = Value::Int64(1);
    targets.push_back(partial);
  }
  return targets;
}

void ExpectMatchesGolden(const std::string& name, const std::string& dump) {
  const std::string path =
      std::string(CAPD_GOLDEN_DIR) + "/" + name + ".txt";
  if (UpdateGoldenMode()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << dump;
    std::fprintf(stderr, "[golden] updated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — regenerate with CAPD_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(dump, expected.str())
      << "graph drifted from " << path
      << " — if intentional, regenerate with CAPD_UPDATE_GOLDEN=1 and "
         "review the diff";
}

TEST(EstimationGraphGolden, GraphsMatchGoldenByteForByte) {
  std::string dump;
  for (const char* name : {"tpch", "sales", "tpcds"}) {
    const workloads::BuiltWorkload built = BuildWorkload(name);
    ASSERT_NE(built.db, nullptr);
    const Batches batches = DtacBothBatches(built);
    ASSERT_FALSE(batches.initial.empty()) << name;
    dump += DumpGraph(std::string(name) + " initial", *built.db,
                      batches.initial, /*sort_order=*/false);
    dump += DumpGraph(std::string(name) + " merged", *built.db,
                      batches.merged, /*sort_order=*/false);
    if (std::string(name) == "tpch") {
      dump += DumpGraph("tpch initial sort-order", *built.db,
                        batches.initial, /*sort_order=*/true);
    }
  }
  const std::unique_ptr<Database> wide = BuildWideDb();
  dump += DumpGraph("wide70", *wide, WideTargets(), /*sort_order=*/false);
  ExpectMatchesGolden("estimation_graph", dump);
}

TEST(EstimationGraphGolden, WideTableTunesThroughEngine) {
  const std::unique_ptr<Database> db = BuildWideDb();
  TuningRequest request;
  for (const char* sql : {
           "SELECT c65, c66, c67 FROM wide WHERE c65 = 3",
           "SELECT c67, SUM(c68) FROM wide WHERE c67 < 2 GROUP BY c67",
           "SELECT c66, c69 FROM wide WHERE c66 BETWEEN 1 AND 3 ORDER BY c69",
           "SELECT c03, c65 FROM wide WHERE c03 = 1",
           "INSERT INTO wide VALUES 40 ROWS",
       }) {
    std::string error;
    std::optional<Statement> stmt = ParseSql(sql, *db, &error);
    ASSERT_TRUE(stmt.has_value()) << sql << ": " << error;
    stmt->id = "W" + std::to_string(request.workload.statements.size());
    request.workload.statements.push_back(std::move(*stmt));
  }
  request.strategy = "dtac-both";
  request.budget = TuningBudget::Fraction(0.15);
  AdvisorEngine engine(*db);
  const TuningResponse response = engine.Tune(request);
  EXPECT_EQ(response.status, TuningResponse::Status::kOk) << response.error;
  EXPECT_GT(response.result.num_candidates, 0u);
}

}  // namespace
}  // namespace capd
