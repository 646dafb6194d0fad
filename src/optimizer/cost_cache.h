// Per-statement what-if cost cache: the advisor's greedy search costs the
// whole workload once per trial configuration, but adding one index only
// changes the cost of statements that can actually see it — every other
// statement's cost is unchanged from the previous trial. Memoizing
// Cost(statement, config) by (statement, the ordered subsequence of config
// indexes relevant to that statement) turns each greedy step from
// O(pool × workload) full costings into O(pool × affected statements),
// while staying bit-identical to the uncached optimizer: a hit returns a
// double produced by the exact computation a miss would run.
//
// Relevance mirrors the optimizer's own gates conservatively (an index
// marked relevant may still contribute nothing; an index marked irrelevant
// provably cannot change the plan): an index is relevant to a SELECT iff
// it sits on a touched table and is clustered (replaces the heap), usable
// as an access path (seekable prefix or covering, partial filter
// subsumed), or usable for an index-nested-loops join; it is relevant to
// an INSERT iff it must be maintained (same table, or an MV over it).
#ifndef CAPD_OPTIMIZER_COST_CACHE_H_
#define CAPD_OPTIMIZER_COST_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/database.h"
#include "optimizer/what_if.h"
#include "query/query.h"

namespace capd {

// Thread-safe: Enumerate's parallel trial evaluations share one cache.
// Concurrent misses on the same key both run the (pure, deterministic)
// optimizer and insert the same value, so results are independent of
// thread count and interleaving. So are the counters: misses() is the
// number of distinct keys costed, hits() every other call.
class StatementCostCache {
 public:
  // All three referents must outlive the cache.
  StatementCostCache(const Database& db, const WhatIfOptimizer& optimizer,
                     const Workload& workload);

  // Unweighted Cost(statement, config), served from the cache when the
  // relevant subsequence has been costed before.
  double Cost(size_t stmt_index, const Configuration& config);

  // Sum of weight * Cost over the workload — bit-identical to
  // WhatIfOptimizer::WorkloadCost (same per-statement terms, summed in the
  // same statement order).
  double WorkloadCost(const Configuration& config);

  // A greedy step's base: one configuration's per-statement costs and
  // cache keys. `config` must outlive the step.
  struct Step {
    const Configuration* config = nullptr;
    std::vector<double> costs;  // unweighted
    std::vector<std::string> keys;
  };
  // Reads back `config`'s costs. Cached statements (all of them, for a
  // configuration costed before) are not counted; others are costed and
  // counted as misses.
  Step BeginStep(const Configuration& config);

  // WorkloadCost(step.config + added) to the bit; `signature` is added's.
  // Only statements `added` is relevant to are looked up, building the
  // extended Configuration only on a miss; every other statement reuses
  // the step's cost and counts as the hit its lookup would have been.
  double WorkloadCostWith(const Step& step, const PhysicalIndexEstimate& added,
                          const std::string& signature);

  // Statement costings served from the cache / computed by the optimizer.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  // True if `idx` can influence the cost of statement `stmt_index`
  // (exposed for tests; memoized by index signature).
  bool Relevant(size_t stmt_index, const IndexDef& idx);

 private:
  // Interned per distinct index signature: a compact id for key building
  // plus the per-statement relevance bitmap. Cache keys are byte strings of
  // ids, so building one costs no signature re-rendering.
  struct IndexInfo {
    uint32_t id = 0;
    std::vector<char> relevant;  // indexed by statement
  };

  bool ComputeRelevant(size_t stmt_index, const IndexDef& idx) const;
  const IndexInfo& InfoFor(const std::string& signature, const IndexDef& idx);
  // InfoFor of every index of `config`, by its recorded signature.
  std::vector<const IndexInfo*> InfosFor(const Configuration& config);
  // Byte key of the relevant subsequence of `infos` for one statement.
  static std::string KeyFor(size_t stmt_index,
                            const std::vector<const IndexInfo*>& infos);
  // Cost of a statement under the configuration `key` describes, which
  // `config()` yields on a miss; with `count_hit` false a hit is uncounted.
  template <typename ConfigFn>
  double CostForKey(size_t stmt_index, std::string key, ConfigFn&& config,
                    bool count_hit = true);

  const Database* db_;
  const WhatIfOptimizer* optimizer_;
  const Workload* workload_;
  // Each statement bound to the catalog once: the misses cost from it and
  // the relevance gates read its table scopes.
  std::vector<PreparedStatement> prepared_;

  // Cost entries are sharded per statement (the statement index is the
  // natural partition of every key), so the selection/enumeration fan-out
  // contends per statement instead of on one global mutex. The id/relevance
  // interner keeps its own lock; its traffic is one lookup per distinct
  // index per trial configuration.
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, double> costs;  // byte key -> cost
  };
  std::vector<Shard> shards_;  // one per workload statement

  std::mutex mu_;
  std::unordered_map<std::string, IndexInfo> index_info_;  // by signature
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_COST_CACHE_H_
