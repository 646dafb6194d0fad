// Knobs of the physical-design tool. The paper's tool variants map to
// presets: DTA (no compression), DTAc(None), DTAc+Skyline, DTAc+Backtrack,
// DTAc(Both), and the naive staged baseline of Example 1/2.
#ifndef CAPD_ADVISOR_ADVISOR_OPTIONS_H_
#define CAPD_ADVISOR_ADVISOR_OPTIONS_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/compression_kind.h"
#include "estimator/size_estimator.h"

namespace capd {

// A recoverable mid-tune failure: the run died but nothing about the
// database, the workload, or the engine state is wrong, so retrying the
// same request may succeed. Thrown by fault hooks (fault injection, or a
// real transient resource: an evicted sample, a briefly unavailable
// statistics source); the AdvisorEngine reports it as an error with
// TuningResponse::retryable set, which the TuningService turns into a
// backoff-and-retry instead of a terminal failure.
class TransientTuningError : public std::runtime_error {
 public:
  explicit TransientTuningError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class CandidateSelectionMode {
  kTopK,     // best-per-query (classic DTA)
  kSkyline,  // full size/cost skyline (Section 6.1)
};

// Candidates kTopK keeps per query.
inline constexpr size_t kTopK = 2;

enum class EnumerationMode {
  kGreedy,        // pure benefit greedy
  kDensityGreedy  // benefit/size greedy (Figure 7)
};

struct AdvisorOptions {
  bool enable_compression = true;
  std::vector<CompressionKind> compression_variants = {
      CompressionKind::kRow, CompressionKind::kPage};

  CandidateSelectionMode selection = CandidateSelectionMode::kSkyline;

  EnumerationMode enumeration = EnumerationMode::kGreedy;
  bool backtracking = true;  // Section 6.2 oversize recovery

  // --- search-loop performance knobs ---
  // Borrowed pool for the advisor's independent what-if costings: the
  // per-query single-index costings of SelectCandidates, Enumerate's trial
  // evaluations (the main candidate loop and the backtracking swap
  // search), and the staged baseline's stage-2 re-costing. Null = serial.
  // Results are bit-identical at any pool size: costings are reduced
  // serially in pool order. Independent of size_options.pool.
  ThreadPool* pool = nullptr;
  // Per-statement what-if cost cache: adding an index only changes the
  // cost of statements touching its object, so unchanged statements reuse
  // cached costs across trials (bit-identical to uncached costing). The
  // hit/miss counts land in AdvisorResult::stmt_costs_{cached,computed}.
  bool cost_cache = true;

  // --- engine integration (see src/engine/advisor_engine.h) ---
  // Cooperative cancellation: checked at phase boundaries and before each
  // enumeration step. When it becomes true, Tune stops early and returns
  // the best configuration found so far with AdvisorResult::cancelled set.
  std::shared_ptr<const std::atomic<bool>> cancel;
  // Phase progress hook, invoked serially from the tuning thread after
  // each phase ("candidates", "estimation", "selection", "merging",
  // "enumeration"; the staged baseline reports its stage-1 phases too).
  std::function<void(const std::string& phase)> progress;
  // Fault hook, invoked at the same phase boundaries just before
  // `progress`. Deterministic fault injection hangs here: the hook may
  // throw TransientTuningError (retryable failure), fire a cancellation
  // flag (forced timeout / spurious cancel), or do nothing. Unset in
  // production paths; see src/service/fault_injector.h.
  std::function<void(const std::string& phase)> fault_hook;

  bool enable_partial = false;  // partial-index candidates
  bool enable_mv = false;       // MV + MV-index candidates

  // Size-estimation knobs (Section 5 framework). Noteworthy fields:
  //   size_options.pool — parallel batch estimation: independent SampleCF
  //     runs execute across this borrowed pool (null = serial) with
  //     bit-identical results.
  //   size_options.cache — shared cross-round EstimationCache: SampleCF
  //     leaves priced in an earlier advisor round (initial pool, merged
  //     pool, staged baseline) are reused instead of re-sampled.
  // Callers that construct the SizeEstimator themselves must build it from
  // this struct for the knobs to take effect (see bench/bench_common.h).
  SizeEstimationOptions size_options;

  // Prints greedy/backtracking decisions to stderr (debugging aid).
  bool trace = false;

  // --- presets ---
  static AdvisorOptions DTA();          // original tool, no compression
  static AdvisorOptions DTAcNone();     // variants only
  static AdvisorOptions DTAcSkyline();  // + skyline selection
  static AdvisorOptions DTAcBacktrack();  // + backtracking enumeration
  static AdvisorOptions DTAcBoth();     // full implementation
  // DTAcBoth + succinct BITMAP variants for low-distinct leading keys, with
  // sort-order deduction on so sibling sort orders of one sampled leaf are
  // derived instead of re-sampled.
  static AdvisorOptions DTAcBitmap();
};

}  // namespace capd

#endif  // CAPD_ADVISOR_ADVISOR_OPTIONS_H_
