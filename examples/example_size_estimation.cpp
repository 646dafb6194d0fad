// Walkthrough of the Section 4-5 size-estimation framework: SampleCF on a
// shared per-table sample, ColSet/ColExt deductions, and the graph search
// choosing which indexes to sample vs deduce under an accuracy constraint.
#include <cstdio>
#include <string>

#include "estimator/size_estimator.h"
#include "index/index_builder.h"
#include "workloads/registry.h"

using namespace capd;

int main() {
  workloads::WorkloadSpec spec;
  spec.name = "tpch";
  spec.rows = 12000;
  workloads::BuiltWorkload built;
  std::string error;
  if (!workloads::Build(spec, &built, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const Database& db = *built.db;

  SampleManager samples(99);
  TableSampleSource source(db, &samples);

  // Compressed indexes whose sizes we want.
  auto idx = [](std::vector<std::string> keys, CompressionKind kind) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = std::move(keys);
    def.compression = kind;
    return def;
  };
  const std::vector<IndexDef> targets = {
      idx({"l_shipdate"}, CompressionKind::kRow),
      idx({"l_shipmode"}, CompressionKind::kRow),
      idx({"l_shipdate", "l_shipmode"}, CompressionKind::kRow),
      idx({"l_shipmode", "l_shipdate"}, CompressionKind::kRow),  // ColSet twin
      idx({"l_shipdate", "l_shipmode", "l_quantity"}, CompressionKind::kRow),
      idx({"l_partkey", "l_suppkey"}, CompressionKind::kPage),
  };

  SizeEstimator estimator(db, &source, ErrorModel(), SizeEstimationOptions{});
  const EstimationBatch batch = estimator.EstimateAll(targets);

  std::printf("chosen sampling fraction f = %.1f%%\n", batch.chosen_f * 100);
  std::printf("total estimation cost      = %.0f sample pages\n",
              batch.total_cost_pages);
  std::printf("%zu SampleCF'd, %zu deduced\n\n", batch.num_sampled,
              batch.num_deduced);

  std::printf("%-55s %10s %10s %8s\n", "index", "estimated", "true", "err");
  IndexBuilder builder(db.table("lineitem"));
  for (const IndexDef& def : targets) {
    const SampleCfResult& r = batch.estimates.at(def.Signature());
    const double truth = static_cast<double>(builder.Build(def).fine_bytes());
    std::printf("%-55s %8.0fKB %8.0fKB %+7.1f%%\n", def.ToString().c_str(),
                r.est_bytes / 1024.0, truth / 1024.0,
                (r.est_bytes / truth - 1.0) * 100.0);
  }
  std::printf("\nOnly %llu base-table rows were scanned for sampling "
              "(amortized across all indexes).\n",
              static_cast<unsigned long long>(samples.rows_scanned()));
  return 0;
}
