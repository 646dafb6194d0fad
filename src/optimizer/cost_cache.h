// Candidate ids and the per-statement what-if cost cache of one search.
//
// CandidateIds interns each sized candidate of a tune once: one dense id
// per distinct signature, naming the candidate's size estimate, its
// structure (shared by its compressed variants) and, for every statement
// it is relevant to, its IndexUse (what_if.h): everything it contributes
// to that statement's cost under any configuration, computed once here.
// The greedy search holds a configuration as an ordered list of ids, so a
// trial appends an id instead of copying a Configuration, and a costing
// combines the uses of the configuration's relevant members, in
// configuration order, with no catalog, string or matcher work.
//
// StatementCostCache memoizes Cost(statement, config) by the ordered
// subsequence of config ids relevant to that statement. Adding one index
// only changes the cost of statements that can actually see it, so each
// greedy step costs O(pool × affected statements) instead of O(pool ×
// workload), while staying bit-identical to the uncached optimizer: a hit
// returns a double produced by the exact computation a miss would run.
// Each Tune builds its own cache and uses it from the tuning thread only,
// so it takes no lock; the optimizer it calls is shared and thread-safe.
//
// Relevance is the optimizer's own rule, not a copy of its gates: a
// candidate is relevant to a statement exactly when its use there
// changes_plan() (it is maintained, replaces the heap, offers an access
// plan, probes a join or answers from an MV). The costing body reads
// nothing of any other use, so leaving an irrelevant candidate out of a
// costing changes no bit.
#ifndef CAPD_OPTIMIZER_COST_CACHE_H_
#define CAPD_OPTIMIZER_COST_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "optimizer/what_if.h"
#include "query/query.h"

namespace capd {

class CandidateIds {
 public:
  using Id = uint32_t;

  // Both referents must outlive this.
  CandidateIds(const WhatIfOptimizer& optimizer, const Workload& workload);

  // Interns `est`, whose IndexDef::Signature() is `signature`, and returns
  // its id; a signature interned before keeps its id, and must come with
  // the same estimate. Both referents must outlive this: a sizes map's key
  // and value serve.
  Id Intern(const std::string& signature, const PhysicalIndexEstimate& est);
  // The id interned under `signature`; CHECK-fails if there is none.
  Id Find(const std::string& signature) const;

  size_t size() const { return estimates_.size(); }
  const PhysicalIndexEstimate& estimate(Id id) const { return *estimates_[id]; }
  // Equal exactly for the compressed variants of one structure.
  uint32_t structure(Id id) const { return structures_[id]; }
  // True if `id`'s use in statement `stmt_index` changes_plan().
  bool relevant(size_t stmt_index, Id id) const {
    return use_at_[id * prepared_.size() + stmt_index] != kIrrelevant;
  }
  // What `id` contributes to statement `stmt_index`, which it must be
  // relevant to.
  const IndexUse& use(size_t stmt_index, Id id) const {
    return uses_[id][use_at_[id * prepared_.size() + stmt_index]];
  }

  const Workload& workload() const { return *workload_; }
  const WhatIfOptimizer& optimizer() const { return *optimizer_; }
  // Each statement bound to the catalog once.
  const PreparedStatement& prepared(size_t stmt_index) const {
    return prepared_[stmt_index];
  }

  // The configuration `config` names, in its order.
  Configuration ToConfiguration(const std::vector<Id>& config) const;

  // Uncached Cost(statement, config) and sum of weight * Cost, combined
  // from the uses of `config`'s relevant members; bit-identical to
  // WhatIfOptimizer::Cost/WorkloadCost of ToConfiguration(config).
  double Cost(size_t stmt_index, const std::vector<Id>& config) const;
  double WorkloadCost(const std::vector<Id>& config) const;
  // Cost(stmt_index, config + added), or of config alone when `added` is
  // kNoId, gathering the uses into the scratch list `uses`. An `added` id
  // must be relevant to the statement.
  static constexpr Id kNoId = UINT32_MAX;
  double Cost(size_t stmt_index, const std::vector<Id>& config, Id added,
              UseList* uses) const;

 private:
  static constexpr uint32_t kIrrelevant = UINT32_MAX;

  const WhatIfOptimizer* optimizer_;
  const Workload* workload_;
  std::vector<PreparedStatement> prepared_;

  std::unordered_map<std::string_view, Id> ids_;  // by signature
  std::unordered_map<std::string_view, uint32_t> structure_ids_;
  // By id: the estimate, its structure, and its uses, one per statement
  // it is relevant to; at [id * statements + statement], that statement's
  // entry in uses_[id], or kIrrelevant.
  std::vector<const PhysicalIndexEstimate*> estimates_;
  std::vector<uint32_t> structures_;
  std::vector<std::vector<IndexUse>> uses_;
  std::vector<uint32_t> use_at_;
  std::vector<IndexUse> kept_;  // Intern's scratch: the relevant uses
};

// Single-threaded. misses() is the number of distinct keys costed, hits()
// every other call.
class StatementCostCache {
 public:
  using Id = CandidateIds::Id;

  // `ids` must outlive the cache.
  explicit StatementCostCache(const CandidateIds& ids);

  // Unweighted Cost(statement, config), served from the cache when the
  // relevant subsequence has been costed before.
  double Cost(size_t stmt_index, const std::vector<Id>& config);

  // Sum of weight * Cost over the workload — bit-identical to
  // WhatIfOptimizer::WorkloadCost (same per-statement terms, summed in the
  // same statement order).
  double WorkloadCost(const std::vector<Id>& config);

  // A greedy step's base: one configuration's per-statement costs and the
  // cache entries they sit at. `config` must outlive the step.
  struct Step {
    const std::vector<Id>* config = nullptr;
    std::vector<uint32_t> nodes;  // per statement, its entry's trie node
    std::vector<double> costs;    // unweighted
  };
  // Reads back `config`'s costs. Cached statements (all of them, for a
  // configuration costed before) are not counted; others are costed and
  // counted as misses.
  Step BeginStep(const std::vector<Id>& config);

  // WorkloadCost(*step.config + added) to the bit. Only statements `added`
  // is relevant to are looked up, one trie edge from the step's entry; every
  // other statement reuses the step's cost and counts as the hit its lookup
  // would have been.
  double WorkloadCostWith(const Step& step, Id added);

  // Statement costings served from the cache / computed by the optimizer.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  // One statement's costs. Entries form a trie over relevant ids: node 0
  // is the empty subsequence, and the edge (node, id) leads to that
  // subsequence extended by id. A lookup walks one edge per relevant
  // member, so a hit builds no key and allocates nothing.
  struct Node {
    double cost = 0.0;
    bool costed = false;
  };
  // The edges live in one open-addressing table, linearly probed and at
  // most half full, so adding an edge allocates nothing but the table's
  // and the nodes' occasional doubling. A slot whose child is 0 is empty:
  // node 0 is no edge's child.
  struct Edge {
    uint32_t node = 0;
    Id id = 0;
    uint32_t child = 0;
  };
  struct Trie {
    std::vector<Edge> edges;  // size 0 or a power of two
    std::vector<Node> nodes = std::vector<Node>(1);
  };

  // The node one edge below `node` along `id` in statement `stmt_index`'s
  // trie, and the node of `config`'s relevant subsequence; each adds the
  // nodes it passes through.
  uint32_t Child(size_t stmt_index, uint32_t node, Id id);
  uint32_t Walk(size_t stmt_index, const std::vector<Id>& config);
  // Cost of statement `stmt_index` at `node`, the entry of `config`'s
  // relevant subsequence, followed by `added` unless it is kNoId. With
  // `count_hit` false a hit is uncounted.
  double CostAt(size_t stmt_index, uint32_t node, const std::vector<Id>& config,
                Id added = CandidateIds::kNoId, bool count_hit = true);

  const CandidateIds* ids_;
  std::vector<Trie> tries_;  // one per workload statement
  UseList uses_;             // a miss's relevant uses
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace capd

#endif  // CAPD_OPTIMIZER_COST_CACHE_H_
