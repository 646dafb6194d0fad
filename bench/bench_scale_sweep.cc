// Scale sweep: tunes the generated "scale" workload at fact-table sizes
// 10^4 .. --rows (decade steps) and reports the advisor's per-phase
// breakdown at each point. The claim under test is that the estimation
// path's cost is sublinear in table size: with a constant absolute sample
// target the sampled row count, estimation pages, and peak RSS stay ~flat
// while the table grows 1000x. Data never materializes — the events fact
// table is a blocked/generated Table, so the only O(n) work is the sample
// draw's RNG stream: each block's rows are drawn up to its last sampled
// row, but only sampled rows are rendered, in blocks filled across the
// estimation pool.
#include <fstream>
#include <sstream>

#include "bench/bench_common.h"
#include "common/alloc_tracker.h"
#include "workloads/scale.h"

namespace capd {
namespace bench {
namespace {

// Absolute sample-row target per scale: fractions are chosen as
// target/rows, so every scale point draws the same number of sample rows
// (subject to the sampler's min-rows floor).
constexpr uint64_t kTargetSampleRows = 10000;

// Peak resident set (VmHWM) in MiB, from /proc/self/status. Linux-only;
// returns 0 where the file is absent. Reported as a time-kind metric:
// informative in the report, never part of the exact-counter CI gate.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string RowsKey(uint64_t rows) {
  return "[rows=" + std::to_string(rows) + "]";
}

void RunScalePoint(BenchContext& ctx, uint64_t rows) {
  const std::string key = RowsKey(rows);

  workloads::WorkloadSpec spec;
  spec.name = "scale";
  spec.rows = rows;
  spec.seed = ctx.flags.seed;
  const auto b0 = std::chrono::steady_clock::now();
  Stack s = MakeStack(std::move(spec));
  const double build_ms = Millis(b0, std::chrono::steady_clock::now());

  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  options.size_options.pool = s.engine->PoolFor(ctx.flags.threads);
  // Constant absolute sample size across the sweep. Without this the
  // default fraction list would make the sample (and the estimation work)
  // grow linearly with the table, burying the sublinearity claim.
  const double f = std::min(
      1.0, static_cast<double>(kTargetSampleRows) / static_cast<double>(rows));
  options.size_options.fractions = {f};

  PhaseTimer phases;
  phases.Watch(&options);
  const uint64_t alloc0 = AllocCount();
  const auto t0 = std::chrono::steady_clock::now();
  const AdvisorResult r = s.Tune(options, /*budget_frac=*/0.15, s.workload);
  const double tune_ms = Millis(t0, std::chrono::steady_clock::now());
  const uint64_t tune_allocs = AllocCount() - alloc0;

  const uint64_t rows_scanned = s.engine->samples()->rows_scanned();
  const double allocs_per_row =
      rows_scanned > 0
          ? static_cast<double>(tune_allocs) / static_cast<double>(rows_scanned)
          : 0.0;
  std::printf("%10llu %9.1f%% %8zu %7zu/%-7zu %9llu %10.0f %8.1f %9.1f %7.1f\n",
              static_cast<unsigned long long>(rows), r.improvement_percent(),
              r.num_candidates, r.num_sampled, r.num_deduced,
              static_cast<unsigned long long>(rows_scanned),
              r.estimation_cost_pages, tune_ms, PeakRssMb(), allocs_per_row);

  // Exact, deterministic counters: these gate in CI.
  ctx.report.AddCounter("num_candidates" + key, r.num_candidates);
  ctx.report.AddCounter("num_sampled" + key, r.num_sampled);
  ctx.report.AddCounter("num_deduced" + key, r.num_deduced);
  ctx.report.AddCounter("what_if_calls" + key, r.what_if_calls);
  ctx.report.AddCounter("stmt_costs_computed" + key, r.stmt_costs_computed);
  ctx.report.AddCounter("stmt_costs_cached" + key, r.stmt_costs_cached);
  ctx.report.AddCounter("sample_rows_scanned" + key, rows_scanned);
  ctx.report.AddCounter("num_samples" + key,
                        s.engine->samples()->num_samples());
  ctx.report.AddValue("improvement_pct" + key, r.improvement_percent());
  ctx.report.AddValue("chosen_f" + key, r.chosen_f);
  ctx.report.AddValue("estimation_cost_pages" + key, r.estimation_cost_pages);
  // Wall times and RSS: report-only (machine-dependent).
  ctx.report.AddTimeMs("build_ms" + key, build_ms);
  ctx.report.AddTimeMs("estimation_ms" + key, phases.estimation_ms());
  ctx.report.AddTimeMs("selection_ms" + key, phases.selection_ms());
  ctx.report.AddTimeMs("enumeration_ms" + key, phases.enumeration_ms());
  ctx.report.AddTimeMs("tune_ms" + key, tune_ms);
  ctx.report.AddTimeMs("peak_rss_mb" + key, PeakRssMb());
  // Heap allocations per sampled row over the whole Tune call (alloc_tracker
  // counts operator new). Allocator/stdlib shaped, so report-only like RSS;
  // the deterministic per-codec gate lives in bench_micro_codecs.
  ctx.report.AddTimeMs("allocs_per_row" + key, allocs_per_row);
}

void Run(BenchContext& ctx) {
  PrintHeader("Scale sweep: estimation cost vs table size (generated data)");
  std::printf("target sample rows per scale: %llu\n",
              static_cast<unsigned long long>(kTargetSampleRows));
  std::printf("%10s %10s %8s %15s %9s %10s %8s %9s %7s\n", "rows", "improve",
              "cands", "sampled/deduced", "scanned", "est_pages", "tune_ms",
              "peakMB", "al/row");

  std::vector<uint64_t> scales;
  for (uint64_t n = 10000; n < ctx.flags.rows; n *= 10) scales.push_back(n);
  scales.push_back(ctx.flags.rows);
  for (const uint64_t n : scales) RunScalePoint(ctx, n);

  std::printf("\nShape: sampled/deduced counts, scanned sample rows and "
              "est_pages stay ~flat while rows grow 1000x — estimation cost "
              "is sublinear in table size (the sample draw's RNG stream is "
              "the only O(n) term; only sampled rows are rendered). al/row = "
              "heap allocations per scanned row across Tune; unsampled rows "
              "allocate nothing, so it falls as the table grows.\n");
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "scale_sweep",
                                /*default_rows=*/10000000,
                                /*default_seed=*/20110829, capd::bench::Run);
}
