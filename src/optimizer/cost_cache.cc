#include "optimizer/cost_cache.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"

namespace capd {
namespace {

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

CandidateIds::CandidateIds(const Database& db, const WhatIfOptimizer& optimizer,
                           const Workload& workload)
    : db_(&db), optimizer_(&optimizer), workload_(&workload) {
  prepared_.reserve(workload.statements.size());
  for (const Statement& stmt : workload.statements) {
    prepared_.push_back(optimizer.Prepare(stmt));
  }
}

bool CandidateIds::ComputeRelevant(size_t stmt_index,
                                   const IndexDef& idx) const {
  const PreparedStatement& stmt = prepared_[stmt_index];
  const bool is_insert = stmt.stmt->type == StatementType::kInsert;
  if (!db_->HasTable(idx.object)) {
    // Index on a materialized view: invisible to the optimizer without a
    // matcher; otherwise it may answer any SELECT, and an INSERT maintains
    // it only when the MV is defined over the inserted table (mirrors
    // CostSelect/CostInsert exactly).
    const MVMatcher* matcher = optimizer_->mv_matcher();
    if (matcher == nullptr) return false;
    if (!is_insert) return true;
    return matcher->FactTableOf(idx.object) == stmt.stmt->insert.table;
  }

  const PreparedTable* ts = nullptr;
  for (const PreparedTable& t : stmt.tables) {
    if (t.table->name() == idx.object) ts = &t;
  }
  if (ts == nullptr) return false;  // statement never touches the object
  // Every index on the loaded table is maintained by a bulk INSERT.
  if (is_insert) return true;
  // A clustered index replaces the heap, changing the base access path
  // whether or not it is itself chosen.
  if (idx.clustered) return true;
  // Mirror IndexAccessCost's usability gates. A partial index whose filter
  // the statement's predicates do not subsume is unusable (and the
  // index-NL join skips filtered indexes too).
  if (idx.filter.has_value() &&
      !PredicatesSubsumeFilter(ts->preds, *idx.filter)) {
    return false;
  }
  // Index-nested-loops join probe: leading key equals a join's dim key.
  if (!idx.filter.has_value() && !idx.key_columns.empty() &&
      Contains(ts->join_keys, idx.key_columns.front())) {
    return true;
  }
  // Seekable: a predicate on the leading key column (equality-only for
  // BITMAP structures — mirrors IndexAccessCost's sargable-prefix gate).
  if (!idx.key_columns.empty()) {
    const bool bitmap = idx.compression == CompressionKind::kBitmap;
    for (const ColumnFilter& p : ts->preds) {
      if (p.column != idx.key_columns.front()) continue;
      if (bitmap && p.op != FilterOp::kEq) continue;
      return true;
    }
  }
  // Covering: every column the statement uses on this table is stored.
  const Schema& base = ts->table->schema();
  for (const std::string& c : ts->cols_used) {
    if (!idx.Stores(base, c)) return false;
  }
  return true;
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
  for (size_t i = 0; i < prepared_.size(); ++i) {
    relevant_.push_back(ComputeRelevant(i, est.def) ? 1 : 0);
  }
  return it->second;
}

CandidateIds::Id CandidateIds::Find(const std::string& signature) const {
  const auto it = ids_.find(signature);
  CAPD_CHECK(it != ids_.end()) << "no candidate " << signature;
  return it->second;
}

MemberList CandidateIds::Members(const std::vector<Id>& config) const {
  MemberList members;
  members.reserve(config.size() + 1);  // room for a trial's added member
  for (const Id id : config) members.push_back(estimates_[id]);
  return members;
}

Configuration CandidateIds::ToConfiguration(
    const std::vector<Id>& config) const {
  Configuration out;
  for (const Id id : config) out.Add(*estimates_[id]);
  return out;
}

double CandidateIds::Cost(size_t stmt_index,
                          const std::vector<Id>& config) const {
  return optimizer_->Cost(prepared_[stmt_index], Members(config));
}

double CandidateIds::WorkloadCost(const std::vector<Id>& config) const {
  const MemberList members = Members(config);
  double total = 0.0;
  for (size_t i = 0; i < prepared_.size(); ++i) {
    total += workload_->statements[i].weight *
             optimizer_->Cost(prepared_[i], members);
  }
  return total;
}

StatementCostCache::StatementCostCache(const CandidateIds& ids)
    : ids_(&ids), tries_(ids.workload().statements.size()) {}

uint32_t StatementCostCache::Child(size_t stmt_index, uint32_t node, Id id) {
  Trie& trie = tries_[stmt_index];
  const uint64_t edge = uint64_t{node} << 32 | id;
  const auto it = trie.edges.find(edge);
  if (it != trie.edges.end()) return it->second;
  const uint32_t child = static_cast<uint32_t>(trie.nodes.size());
  trie.nodes.emplace_back();
  trie.edges.emplace(edge, child);
  return child;
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

template <typename MembersFn>
double StatementCostCache::CostAt(size_t stmt_index, uint32_t node,
                                  MembersFn&& members, bool count_hit) {
  Node& entry = tries_[stmt_index].nodes[node];
  if (entry.costed) {
    if (count_hit) ++hits_;
    return entry.cost;
  }
  entry.cost = ids_->optimizer().Cost(ids_->prepared(stmt_index), members());
  entry.costed = true;
  ++misses_;
  return entry.cost;
}

double StatementCostCache::Cost(size_t stmt_index,
                                const std::vector<Id>& config) {
  return CostAt(stmt_index, Walk(stmt_index, config),
                [&] { return ids_->Members(config); });
}

double StatementCostCache::WorkloadCost(const std::vector<Id>& config) {
  std::optional<MemberList> members;  // built on the first miss
  auto given = [&]() -> const MemberList& {
    if (!members.has_value()) members = ids_->Members(config);
    return *members;
  };
  const Workload& workload = ids_->workload();
  double total = 0.0;
  for (size_t i = 0; i < workload.statements.size(); ++i) {
    total += workload.statements[i].weight * CostAt(i, Walk(i, config), given);
  }
  return total;
}

StatementCostCache::Step StatementCostCache::BeginStep(
    const std::vector<Id>& config) {
  std::optional<MemberList> members;
  auto given = [&]() -> const MemberList& {
    if (!members.has_value()) members = ids_->Members(config);
    return *members;
  };
  Step step;
  step.config = &config;
  for (size_t i = 0; i < tries_.size(); ++i) {
    step.nodes.push_back(Walk(i, config));
    step.costs.push_back(
        CostAt(i, step.nodes.back(), given, /*count_hit=*/false));
  }
  return step;
}

double StatementCostCache::WorkloadCostWith(const Step& step, Id added) {
  std::optional<MemberList> trial;  // step.config + added, on a miss
  auto given = [&]() -> const MemberList& {
    if (!trial.has_value()) {
      trial = ids_->Members(*step.config);
      trial->push_back(&ids_->estimate(added));
    }
    return *trial;
  };
  // Same weighted terms in the same statement order as WorkloadCost.
  const Workload& workload = ids_->workload();
  double total = 0.0;
  for (size_t i = 0; i < workload.statements.size(); ++i) {
    double cost = step.costs[i];
    if (ids_->relevant(i, added)) {
      cost = CostAt(i, Child(i, step.nodes[i], added), given);
    } else {
      ++hits_;
    }
    total += workload.statements[i].weight * cost;
  }
  return total;
}

}  // namespace capd
