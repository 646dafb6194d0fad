// Top-level entry point of the index-size-estimation framework (Section 5):
// given a batch of compressed target indexes plus accuracy parameters
// (e, q), choose a sampling fraction f and a per-index method (SampleCF or
// deduction) minimizing total estimation cost, then execute the plan.
#ifndef CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_
#define CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_

#include <atomic>
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
  // estimation_cache.h), at two levels. A batch whose exact inputs were
  // estimated before (same targets in the same order on the same objects,
  // same e, q, fractions, switches and error model) is served whole. Any
  // other batch enters the graph and searches fractions as if the cache
  // were cold; only its SampleCF leaves are served, at (signature, object
  // identity, chosen f). So a batch is bit-identical to an uncached run
  // whatever the cache already holds. One cache serves one Database and
  // one sample seed (an engine's): both are inputs of every entry, so the
  // Database must not change while the cache is in use. It never evicts:
  // one entry per distinct batch and per sampled leaf.
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

  // Estimates sizes of all (compressed) targets. Uncompressed targets are
  // sized deterministically and never enter the graph. With a cache, a
  // batch already estimated under the same key (BatchKey) is returned as
  // stored; otherwise the batch is planned and run, and stored unless the
  // cancel flag is up.
  EstimationBatch EstimateAll(const std::vector<IndexDef>& targets);

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
  // Plans and runs the batch (Section 5.2): builds the graph, picks the
  // fraction, executes the plan (its leaves through the cache, if any).
  EstimationBatch Plan(const std::vector<IndexDef>& targets);

  // Every input Plan reads: the bits of e, q and each fraction, the two
  // planning switches, the bits of the error model's coefficients, then
  // each target's signature (the name every estimate is keyed by) and
  // object identity, in input order (the order fixes node ids, and so the
  // greedy's ties).
  std::string BatchKey(const std::vector<IndexDef>& targets) const;

  bool Cancelled() const {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  }

  const Database* db_;
  SampleSource* source_;
  ErrorModel model_;
  SizeEstimationOptions options_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_SIZE_ESTIMATOR_H_
