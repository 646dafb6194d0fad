// Scaling benchmark for the parallel candidate-selection phase (and the
// staged baseline): full DTAc tuning runs over the TPC-H workload with a
// per-phase wall-time breakdown — size estimation / per-query candidate
// selection / enumeration, cut at the progress callbacks (PhaseTimer) —
// plus the stmt_costs_{computed,cached} counters showing the
// selection-phase costings warming (and hitting) the shared
// StatementCostCache. Every run is checked bit-identical to the serial
// baseline, and the counters match the serial run at every thread count
// too (only the inserting miss of a cache key counts as computed).
#include <cstring>

#include "bench/bench_common.h"

namespace capd {
namespace bench {
namespace {

bool SameRecommendation(const AdvisorResult& a, const AdvisorResult& b) {
  if (std::memcmp(&a.final_cost, &b.final_cost, sizeof(double)) != 0) {
    return false;
  }
  if (a.config.size() != b.config.size()) return false;
  for (size_t i = 0; i < a.config.indexes().size(); ++i) {
    if (a.config.indexes()[i].def.Signature() !=
        b.config.indexes()[i].def.Signature()) {
      return false;
    }
  }
  return true;
}

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
      "Per-phase breakdown (threads=1): selection costings hit the shared "
      "cost cache");
  PrintPhaseHeader();
  PhaseTimer timer;
  AdvisorResult serial;
  for (bool use_cache : {false, true}) {
    AdvisorOptions options = base;
    options.cost_cache = use_cache;
    timer.Watch(&options);
    const AdvisorResult r = s.Tune(options, budget, w);
    if (!use_cache) serial = r;
    const bool identical = SameRecommendation(serial, r);
    PrintRow(use_cache ? "cache-on" : "cache-off", r, timer, identical);
    RecordRow(&ctx, std::string("[cache=") + (use_cache ? "on" : "off") + "]",
              r, timer, identical);
  }

  PrintHeader("Candidate selection + enumeration thread scaling (cache on)");
  PrintPhaseHeader();
  for (int threads : {1, 2, 4, 8}) {
    AdvisorOptions options = base;
    options.cost_cache = true;
    options.pool = s.engine->PoolFor(threads);
    timer.Watch(&options);
    const AdvisorResult r = s.Tune(options, budget, w);
    char label[16];
    std::snprintf(label, sizeof(label), "t=%d", threads);
    const bool identical = SameRecommendation(serial, r);
    PrintRow(label, r, timer, identical);
    RecordRow(&ctx, "[threads=" + std::to_string(threads) + "]", r, timer,
              identical);
  }

  PrintHeader("Staged baseline (stage 1 on the pool, then stage 2)");
  PrintPhaseHeader();
  AdvisorResult staged_serial;
  for (int threads : {1, 4}) {
    AdvisorOptions options = base;
    options.pool = s.engine->PoolFor(threads);
    timer.Watch(&options);
    SizeEstimator estimator(*s.db, s.mvs(), ErrorModel(),
                            options.size_options);
    Advisor advisor(*s.db, s.optimizer(), &estimator, s.mvs(), options);
    const AdvisorResult r = advisor.TuneStagedBaseline(
        w, budget * static_cast<double>(s.db->BaseDataBytes()),
        CompressionKind::kPage);
    if (threads == 1) staged_serial = r;
    char label[16];
    std::snprintf(label, sizeof(label), "staged t=%d", threads);
    const bool identical = SameRecommendation(staged_serial, r);
    PrintRow(label, r, timer, identical);
    RecordRow(&ctx, "[staged,threads=" + std::to_string(threads) + "]", r,
              timer, identical);
  }
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "parallel_candidates",
                                /*default_rows=*/24000,
                                /*default_seed=*/20110829, capd::bench::Run);
}
