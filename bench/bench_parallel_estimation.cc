// Scaling benchmark for the parallel batch-estimation engine: the Figure 11
// estimation workload (full candidate set of the all-features tool over
// TPC-H) executed with 1/2/4/8 worker threads, verifying byte-identical
// results at every thread count, plus the cross-round estimation cache: a
// second round of the same batch is served whole from the cache (same
// fraction, same plan cost, one hit per sampled leaf) instead of being
// planned and built again.
#include <cstring>

#include "advisor/candidates.h"
#include "bench/bench_common.h"

namespace capd {
namespace bench {
namespace {

bool SameEstimates(const EstimationBatch& a, const EstimationBatch& b) {
  if (a.estimates.size() != b.estimates.size()) return false;
  auto ita = a.estimates.begin();
  auto itb = b.estimates.begin();
  for (; ita != a.estimates.end(); ++ita, ++itb) {
    if (ita->first != itb->first) return false;
    if (std::memcmp(&ita->second, &itb->second, sizeof(SampleCfResult)) != 0) {
      return false;
    }
  }
  return true;
}

void Run(BenchContext& ctx) {
  PrintHeader("Parallel size estimation: thread scaling, Fig.11 workload");
  Stack s = MakeTpchStack(ctx.flags.rows, 0.0, ctx.flags.seed);
  AdvisorOptions options = AdvisorOptions::DTAcBoth();
  options.enable_partial = true;
  options.enable_mv = true;
  options.size_options.e = 0.25;
  options.size_options.q = 0.95;

  CandidateGenerator generator(*s.db, s.optimizer(), s.mvs(), options);
  std::vector<IndexDef> targets;
  for (const IndexDef& def : generator.GenerateForWorkload(s.workload)) {
    if (def.compression != CompressionKind::kNone) targets.push_back(def);
  }
  std::printf("targets: %zu compressed candidates, lineitem=%llu rows\n",
              targets.size(),
              static_cast<unsigned long long>(ctx.flags.rows));
  ctx.report.AddCounter("targets", targets.size());

  // Warm the shared sample caches once so every timed run measures the
  // estimation work itself (index builds on samples), not sample drawing.
  {
    SizeEstimationOptions warm = options.size_options;
    SizeEstimator estimator(*s.db, s.mvs(), ErrorModel(), warm);
    estimator.EstimateAll(targets);
  }

  std::printf("%-8s %12s %10s %10s\n", "threads", "time", "speedup",
              "identical");
  double serial_ms = 0.0;
  EstimationBatch baseline;
  for (int threads : {1, 2, 4, 8}) {
    SizeEstimationOptions size_options = options.size_options;
    size_options.pool = s.engine->PoolFor(threads);
    SizeEstimator estimator(*s.db, s.mvs(), ErrorModel(), size_options);
    const auto t0 = std::chrono::steady_clock::now();
    const EstimationBatch batch = estimator.EstimateAll(targets);
    const double ms = Millis(t0, std::chrono::steady_clock::now());
    const bool identical = threads == 1 || SameEstimates(baseline, batch);
    if (threads == 1) {
      serial_ms = ms;
      baseline = batch;
    }
    std::printf("%-8d %9.1f ms %9.2fx %10s\n", threads, ms,
                serial_ms / std::max(ms, 1e-9),
                threads == 1 ? "-" : identical ? "yes" : "NO");
    const std::string key = "[threads=" + std::to_string(threads) + "]";
    ctx.report.AddTimeMs("estimate_all_ms" + key, ms);
    ctx.report.AddCounter("identical" + key, identical ? 1 : 0);
  }

  PrintHeader("Cross-round estimation cache: repeat pricing of one pool");
  SizeEstimationOptions cached_options = options.size_options;
  cached_options.cache = std::make_shared<EstimationCache>();
  SizeEstimator estimator(*s.db, s.mvs(), ErrorModel(), cached_options);
  std::printf("%-8s %12s %12s %12s\n", "round", "time", "cost(pg)", "hits");
  for (int round = 1; round <= 2; ++round) {
    const uint64_t hits0 = cached_options.cache->hits();
    const auto t0 = std::chrono::steady_clock::now();
    const EstimationBatch batch = estimator.EstimateAll(targets);
    const double ms = Millis(t0, std::chrono::steady_clock::now());
    const uint64_t hits = cached_options.cache->hits() - hits0;
    std::printf("%-8d %9.1f ms %12.0f %12llu\n", round, ms,
                batch.total_cost_pages, static_cast<unsigned long long>(hits));
    const std::string key = "[round=" + std::to_string(round) + "]";
    ctx.report.AddTimeMs("round_ms" + key, ms);
    ctx.report.AddValue("cost_pages" + key, batch.total_cost_pages);
    ctx.report.AddCounter("cache_hits" + key, hits);
  }
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "parallel_estimation",
                                /*default_rows=*/24000,
                                /*default_seed=*/20110829, capd::bench::Run);
}
