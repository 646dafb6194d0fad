#include "optimizer/cost_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace capd {
namespace {

// Fibonacci hashing of the edge (node, id): the product's high half mixes
// both halves of the key.
size_t EdgeHash(uint32_t node, uint32_t id) {
  const uint64_t key = uint64_t{node} << 32 | id;
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

CandidateIds::CandidateIds(const WhatIfOptimizer& optimizer,
                           const Workload& workload)
    : optimizer_(&optimizer), workload_(&workload) {
  prepared_.reserve(workload.statements.size());
  for (const Statement& stmt : workload.statements) {
    prepared_.push_back(optimizer.Prepare(stmt));
  }
}

CandidateIds::Id CandidateIds::Intern(const std::string& signature,
                                      const PhysicalIndexEstimate& est) {
  const auto [it, inserted] =
      ids_.emplace(signature, static_cast<Id>(estimates_.size()));
  if (!inserted) {
    CAPD_CHECK(estimates_[it->second] == &est)
        << "two estimates interned as " << signature;
    return it->second;
  }
  estimates_.push_back(&est);
  // A signature is the structure signature, '|', and the compression
  // name, which holds no '|'.
  const std::string_view structure =
      std::string_view(signature).substr(0, signature.rfind('|'));
  structures_.push_back(
      structure_ids_.emplace(structure, structure_ids_.size()).first->second);
  // The candidate keeps the uses that change a plan, in one array of
  // exactly their count: growing a shared array would copy every earlier
  // use at each doubling.
  kept_.clear();
  for (const PreparedStatement& stmt : prepared_) {
    const IndexUse use = optimizer_->Use(stmt, est);
    if (use.changes_plan()) {
      use_at_.push_back(static_cast<uint32_t>(kept_.size()));
      kept_.push_back(use);
    } else {
      use_at_.push_back(kIrrelevant);
    }
  }
  uses_.emplace_back(kept_.begin(), kept_.end());
  return it->second;
}

CandidateIds::Id CandidateIds::Find(const std::string& signature) const {
  const auto it = ids_.find(signature);
  CAPD_CHECK(it != ids_.end()) << "no candidate " << signature;
  return it->second;
}

Configuration CandidateIds::ToConfiguration(
    const std::vector<Id>& config) const {
  Configuration out;
  for (const Id id : config) out.Add(*estimates_[id]);
  return out;
}

double CandidateIds::Cost(size_t stmt_index, const std::vector<Id>& config,
                          Id added, UseList* uses) const {
  uses->clear();
  for (const Id id : config) {
    if (relevant(stmt_index, id)) uses->push_back(&use(stmt_index, id));
  }
  if (added != kNoId) uses->push_back(&use(stmt_index, added));
  return optimizer_->Cost(prepared_[stmt_index], *uses);
}

double CandidateIds::Cost(size_t stmt_index,
                          const std::vector<Id>& config) const {
  UseList uses;
  return Cost(stmt_index, config, kNoId, &uses);
}

double CandidateIds::WorkloadCost(const std::vector<Id>& config) const {
  UseList uses;
  double total = 0.0;
  for (size_t i = 0; i < prepared_.size(); ++i) {
    total += workload_->statements[i].weight * Cost(i, config, kNoId, &uses);
  }
  return total;
}

StatementCostCache::StatementCostCache(const CandidateIds& ids)
    : ids_(&ids), tries_(ids.workload().statements.size()) {}

uint32_t StatementCostCache::Child(size_t stmt_index, uint32_t node, Id id) {
  Trie& trie = tries_[stmt_index];
  // Keep the table at most half full once this edge is added: a trie of n
  // nodes has n - 1 edges.
  if (2 * trie.nodes.size() > trie.edges.size()) {
    const std::vector<Edge> old = std::move(trie.edges);
    trie.edges.assign(std::max<size_t>(16, 2 * old.size()), Edge{});
    const size_t mask = trie.edges.size() - 1;
    for (const Edge& edge : old) {
      if (edge.child == 0) continue;
      size_t slot = EdgeHash(edge.node, edge.id) & mask;
      while (trie.edges[slot].child != 0) slot = (slot + 1) & mask;
      trie.edges[slot] = edge;
    }
  }
  const size_t mask = trie.edges.size() - 1;
  for (size_t slot = EdgeHash(node, id) & mask;; slot = (slot + 1) & mask) {
    Edge& edge = trie.edges[slot];
    if (edge.child == 0) {
      edge = Edge{node, id, static_cast<uint32_t>(trie.nodes.size())};
      trie.nodes.emplace_back();
      return edge.child;
    }
    if (edge.node == node && edge.id == id) return edge.child;
  }
}

uint32_t StatementCostCache::Walk(size_t stmt_index,
                                  const std::vector<Id>& config) {
  // The cost of a statement is a function of the *ordered subsequence* of
  // relevant indexes (best-path ties and floating-point sums follow
  // configuration order), so the walk follows that order — never sorts.
  uint32_t node = 0;
  for (const Id id : config) {
    if (ids_->relevant(stmt_index, id)) node = Child(stmt_index, node, id);
  }
  return node;
}

double StatementCostCache::CostAt(size_t stmt_index, uint32_t node,
                                  const std::vector<Id>& config, Id added,
                                  bool count_hit) {
  Node& entry = tries_[stmt_index].nodes[node];
  if (entry.costed) {
    if (count_hit) ++hits_;
    return entry.cost;
  }
  entry.cost = ids_->Cost(stmt_index, config, added, &uses_);
  entry.costed = true;
  ++misses_;
  return entry.cost;
}

double StatementCostCache::Cost(size_t stmt_index,
                                const std::vector<Id>& config) {
  return CostAt(stmt_index, Walk(stmt_index, config), config);
}

double StatementCostCache::WorkloadCost(const std::vector<Id>& config) {
  const Workload& workload = ids_->workload();
  double total = 0.0;
  for (size_t i = 0; i < workload.statements.size(); ++i) {
    total += workload.statements[i].weight * CostAt(i, Walk(i, config), config);
  }
  return total;
}

StatementCostCache::Step StatementCostCache::BeginStep(
    const std::vector<Id>& config) {
  Step step;
  step.config = &config;
  for (size_t i = 0; i < tries_.size(); ++i) {
    step.nodes.push_back(Walk(i, config));
    step.costs.push_back(CostAt(i, step.nodes.back(), config,
                                CandidateIds::kNoId, /*count_hit=*/false));
  }
  return step;
}

double StatementCostCache::WorkloadCostWith(const Step& step, Id added) {
  // Same weighted terms in the same statement order as WorkloadCost.
  const Workload& workload = ids_->workload();
  double total = 0.0;
  for (size_t i = 0; i < workload.statements.size(); ++i) {
    double cost = step.costs[i];
    if (ids_->relevant(i, added)) {
      cost = CostAt(i, Child(i, step.nodes[i], added), *step.config, added);
    } else {
      ++hits_;
    }
    total += workload.statements[i].weight * cost;
  }
  return total;
}

}  // namespace capd
