// Top-level entry point of the index-size-estimation framework (Section 5):
// given a batch of compressed target indexes plus accuracy parameters
// (e, q), choose a sampling fraction f and a per-index method (SampleCF or
// deduction) minimizing total estimation cost, then execute the plan.
#ifndef CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_
#define CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "estimator/estimation_cache.h"
#include "estimator/estimation_graph.h"

namespace capd {

struct SizeEstimationOptions {
  double e = 0.5;  // tolerable error ratio
  double q = 0.9;  // confidence that error stays within e
  std::vector<double> fractions = {0.01, 0.025, 0.05, 0.10};
  // When false, every target is SampleCF'd (the "w/o deduction" baseline of
  // Figure 11; the shared SampleManager is still used).
  bool use_deduction = true;
  // Opt-in kSortOrder deduction: sibling sort orders of an ORD-DEP
  // structure (same column set, different key order) are recomputed on the
  // first sibling's sample instead of each being charged a sampling pass.
  // Off by default so pre-existing batch plans stay byte-identical.
  bool enable_sort_order_deduction = false;
  // Borrowed pool for the batch's parallel phases (fraction probes,
  // SampleCF leaves, uncompressed sizing); null = serial. Any pool size
  // gives byte-identical results: samples are seeded per cache key.
  ThreadPool* pool = nullptr;
  // Optional cross-round cache, shared and thread-safe (see
  // estimation_cache.h). Every target still enters the graph and the
  // fraction search runs as if the cache were cold; only the SampleCF
  // leaves are memoized, at (signature, chosen f). So a batch is
  // bit-identical to an uncached run whatever the cache already holds.
  std::shared_ptr<EstimationCache> cache;
  // Cooperative cancellation, polled inside the batch itself (per fraction
  // probe and per SampleCF leaf) so a deadline binds within a long
  // estimation phase, not just at its boundary. On cancel EstimateAll
  // returns early with whatever estimates completed (possibly none); the
  // advisor discards such partial batches. When the flag never fires,
  // results are bit-identical to running without it — polling a relaxed
  // atomic is the only added work. The AdvisorEngine wires this to the
  // request's CancellationToken automatically.
  std::shared_ptr<const std::atomic<bool>> cancel;
};

class SizeEstimator {
 public:
  SizeEstimator(const Database& db, SampleSource* source, ErrorModel model,
                SizeEstimationOptions options)
      : db_(&db),
        source_(source),
        model_(std::move(model)),
        options_(std::move(options)) {}

  struct BatchResult {
    std::map<std::string, SampleCfResult> estimates;  // by IndexDef signature
    double chosen_f = 0.0;
    double total_cost_pages = 0.0;
    size_t num_sampled = 0;
    size_t num_deduced = 0;
    // SampleCF leaves (targets or helper nodes) served from the cache.
    size_t cache_hits = 0;
  };

  // Estimates sizes of all (compressed) targets. Uncompressed targets are
  // sized deterministically and never enter the graph.
  BatchResult EstimateAll(const std::vector<IndexDef>& targets);

  // Deterministic size of an uncompressed index.
  SampleCfResult UncompressedSize(const IndexDef& def);

  // Batch variant: sizes every (uncompressed) def concurrently on the
  // estimation pool, returning results in input order. Bit-identical to
  // calling UncompressedSize in a loop — shared samples are seeded per
  // cache key, never per draw order.
  std::vector<SampleCfResult> UncompressedSizeAll(
      const std::vector<IndexDef>& defs);

  const SizeEstimationOptions& options() const { return options_; }
  const ErrorModel& model() const { return model_; }

 private:
  const Database* db_;
  SampleSource* source_;
  ErrorModel model_;
  SizeEstimationOptions options_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_
