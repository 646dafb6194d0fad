// Benchmark for the incremental advisor search loop: the full tuning run
// (DTAc with skyline + backtracking) over the TPC-H workload, measuring how
// many full-workload statement costings the per-statement cost cache saves
// per greedy step, and checking the cached recommendation is bit-identical
// to the uncached one. A shared estimation cache prices the candidate pool
// once up front, so the timed runs never re-build a sample index; the
// search loop dominates. The search runs on the tuning thread.
#include "bench/bench_common.h"

namespace capd {
namespace bench {
namespace {

void Run(BenchContext& ctx) {
  Stack s = MakeTpchStack(ctx.flags.rows, 0.0, ctx.flags.seed);
  const Workload w = s.workload.WithInsertWeight(0.2);
  const double budget = 0.20;

  AdvisorOptions base = AdvisorOptions::DTAcBoth();
  // One shared estimation cache: the pool is priced on the first run and
  // every later run serves its SampleCF leaves from it, isolating
  // enumeration time.
  base.size_options.cache = std::make_shared<EstimationCache>();
  s.Tune(base, budget, w);  // warm samples + estimation cache

  PrintHeader("Statement-cost cache: workload costings saved");
  std::printf("%-10s %12s %12s %12s %10s %10s\n", "cache", "what-if",
              "computed", "cached", "saved", "time");
  AdvisorResult uncached, cached;
  for (bool use_cache : {false, true}) {
    AdvisorOptions options = base;
    options.cost_cache = use_cache;
    const auto t0 = std::chrono::steady_clock::now();
    const AdvisorResult r = s.Tune(options, budget, w);
    const double ms = Millis(t0, std::chrono::steady_clock::now());
    const size_t costings = r.stmt_costs_computed + r.stmt_costs_cached;
    const double saved =
        static_cast<double>(costings) /
        static_cast<double>(std::max<size_t>(r.stmt_costs_computed, 1));
    std::printf("%-10s %12zu %12zu %12zu %9.1fx %7.1f ms\n",
                use_cache ? "on" : "off", r.what_if_calls,
                r.stmt_costs_computed, r.stmt_costs_cached, saved, ms);
    (use_cache ? cached : uncached) = r;
    const std::string key = std::string("[cache=") +
                            (use_cache ? "on" : "off") + "]";
    ctx.report.AddCounter("what_if_calls" + key, r.what_if_calls);
    ctx.report.AddCounter("stmt_costs_computed" + key, r.stmt_costs_computed);
    ctx.report.AddCounter("stmt_costs_cached" + key, r.stmt_costs_cached);
    ctx.report.AddValue("costings_saved_ratio" + key, saved);
    ctx.report.AddTimeMs("tune_ms" + key, ms);
  }
  const bool cache_identical = SameRecommendation(uncached, cached);
  std::printf("identical recommendation: %s\n", cache_identical ? "yes" : "NO");
  ctx.report.AddCounter("identical[cache=on]", cache_identical ? 1 : 0);
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "parallel_enumerate",
                                /*default_rows=*/24000,
                                /*default_seed=*/20110829, capd::bench::Run);
}
