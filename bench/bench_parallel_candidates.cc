// Phase-breakdown benchmark for candidate selection (and the staged
// baseline): full DTAc tuning runs over the TPC-H workload with a
// per-phase wall-time breakdown — size estimation / per-query candidate
// selection / enumeration, cut at the progress callbacks (PhaseTimer) —
// plus the stmt_costs_{computed,cached} counters showing the
// selection-phase costings warming (and hitting) the StatementCostCache.
// Every cached run is checked bit-identical to its uncached counterpart.
// The search runs on the tuning thread; the staged rows keep their
// historical "threads=1" metric keys.
#include "bench/bench_common.h"

namespace capd {
namespace bench {
namespace {

void PrintRow(const char* label, const AdvisorResult& r,
              const PhaseTimer& t, bool identical) {
  std::printf("%-10s %10.1f %10.1f %10.1f %10.1f %10zu %10zu %10s\n", label,
              t.estimation_ms(), t.selection_ms(), t.enumeration_ms(),
              t.estimation_ms() + t.selection_ms() + t.enumeration_ms(),
              r.stmt_costs_computed, r.stmt_costs_cached,
              identical ? "yes" : "NO");
}

void PrintPhaseHeader() {
  std::printf("%-10s %10s %10s %10s %10s %10s %10s %10s\n", "run", "est-ms",
              "sel-ms", "enum-ms", "total-ms", "computed", "cached",
              "identical");
}

void RecordRow(BenchContext* ctx, const std::string& key,
               const AdvisorResult& r, const PhaseTimer& t, bool identical) {
  ctx->report.AddTimeMs("estimation_ms" + key, t.estimation_ms());
  ctx->report.AddTimeMs("selection_ms" + key, t.selection_ms());
  ctx->report.AddTimeMs("enumeration_ms" + key, t.enumeration_ms());
  ctx->report.AddCounter("stmt_costs_computed" + key, r.stmt_costs_computed);
  ctx->report.AddCounter("stmt_costs_cached" + key, r.stmt_costs_cached);
  ctx->report.AddCounter("identical" + key, identical ? 1 : 0);
}

void Run(BenchContext& ctx) {
  Stack s = MakeTpchStack(ctx.flags.rows, 0.0, ctx.flags.seed);
  const Workload w = s.workload.WithInsertWeight(0.2);
  const double budget = 0.20;

  AdvisorOptions base = AdvisorOptions::DTAcBoth();
  // One shared estimation cache: the pool is priced on the first run and
  // every later run serves its SampleCF leaves from it, so the timed
  // phases are selection + enumeration, not sampling.
  base.size_options.cache = std::make_shared<EstimationCache>();
  s.Tune(base, budget, w);  // warm samples + estimation cache

  PrintHeader(
      "Per-phase breakdown: selection costings warm the cost cache");
  PrintPhaseHeader();
  PhaseTimer timer;
  AdvisorResult uncached;
  for (bool use_cache : {false, true}) {
    AdvisorOptions options = base;
    options.cost_cache = use_cache;
    timer.Watch(&options);
    const AdvisorResult r = s.Tune(options, budget, w);
    if (!use_cache) uncached = r;
    const bool identical = SameRecommendation(uncached, r);
    PrintRow(use_cache ? "cache-on" : "cache-off", r, timer, identical);
    RecordRow(&ctx, std::string("[cache=") + (use_cache ? "on" : "off") + "]",
              r, timer, identical);
  }

  PrintHeader("Staged baseline (stage 1, then stage 2)");
  PrintPhaseHeader();
  auto tune_staged = [&](const AdvisorOptions& options) {
    SizeEstimator estimator(*s.db, s.mvs(), ErrorModel(),
                            options.size_options);
    Advisor advisor(*s.db, s.optimizer(), &estimator, s.mvs(), options);
    return advisor.TuneStagedBaseline(
        w, budget * static_cast<double>(s.db->BaseDataBytes()),
        CompressionKind::kPage);
  };
  // The timed row runs with the cost cache; an uncached run after it is
  // the reference.
  AdvisorOptions options = base;
  timer.Watch(&options);
  const AdvisorResult staged = tune_staged(options);
  AdvisorOptions staged_uncached = base;
  staged_uncached.cost_cache = false;
  const bool identical =
      SameRecommendation(tune_staged(staged_uncached), staged);
  PrintRow("staged", staged, timer, identical);
  RecordRow(&ctx, "[staged,threads=1]", staged, timer, identical);
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "parallel_candidates",
                                /*default_rows=*/24000,
                                /*default_seed=*/20110829, capd::bench::Run);
}
