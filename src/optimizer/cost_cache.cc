#include "optimizer/cost_cache.h"

#include <algorithm>
#include <optional>

namespace capd {
namespace {

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

}  // namespace

StatementCostCache::StatementCostCache(const Database& db,
                                       const WhatIfOptimizer& optimizer,
                                       const Workload& workload)
    : db_(&db),
      optimizer_(&optimizer),
      workload_(&workload),
      shards_(workload.statements.size()) {
  prepared_.reserve(workload.statements.size());
  for (const Statement& stmt : workload.statements) {
    prepared_.push_back(optimizer.Prepare(stmt));
  }
}

bool StatementCostCache::ComputeRelevant(size_t stmt_index,
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

const StatementCostCache::IndexInfo& StatementCostCache::InfoFor(
    const std::string& signature, const IndexDef& idx) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_info_.find(signature);
    // References into the node-based map stay valid across later inserts.
    if (it != index_info_.end()) return it->second;
  }
  IndexInfo info;
  info.relevant.resize(workload_->statements.size());
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    info.relevant[i] = ComputeRelevant(i, idx) ? 1 : 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // First inserter wins the id; a concurrent compute produced the same
  // bitmap, so either copy is fine. Ids are only unique labels within this
  // cache instance — cost values never depend on their numeric order.
  const auto [it, inserted] = index_info_.emplace(signature, std::move(info));
  if (inserted) it->second.id = static_cast<uint32_t>(index_info_.size());
  return it->second;
}

std::vector<const StatementCostCache::IndexInfo*> StatementCostCache::InfosFor(
    const Configuration& config) {
  std::vector<const IndexInfo*> infos;
  infos.reserve(config.size());
  for (size_t i = 0; i < config.size(); ++i) {
    infos.push_back(&InfoFor(config.signature(i), config.indexes()[i].def));
  }
  return infos;
}

bool StatementCostCache::Relevant(size_t stmt_index, const IndexDef& idx) {
  return InfoFor(idx.Signature(), idx).relevant[stmt_index] != 0;
}

std::string StatementCostCache::KeyFor(
    size_t stmt_index, const std::vector<const IndexInfo*>& infos) {
  // The cost of a statement is a function of the *ordered subsequence* of
  // relevant indexes (best-path ties and floating-point sums follow
  // configuration order), so the key preserves that order — never sorts.
  // The statement index itself is the shard, so it never enters the key.
  std::string key;
  key.reserve(4 * infos.size());
  for (const IndexInfo* info : infos) {
    if (info->relevant[stmt_index]) AppendU32(&key, info->id);
  }
  return key;
}

template <typename ConfigFn>
double StatementCostCache::CostForKey(size_t stmt_index, std::string key,
                                      ConfigFn&& config, bool count_hit) {
  Shard& shard = shards_[stmt_index];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.costs.find(key);
    if (it != shard.costs.end()) {
      if (count_hit) hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  const double cost = optimizer_->Cost(prepared_[stmt_index], config());
  std::lock_guard<std::mutex> lock(shard.mu);
  // Only the inserting call counts as a miss; a concurrent miss that lost
  // the race counts as the hit it would have been serially.
  if (shard.costs.emplace(std::move(key), cost).second) {
    misses_.fetch_add(1, std::memory_order_relaxed);
  } else if (count_hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return cost;
}

double StatementCostCache::Cost(size_t stmt_index,
                                const Configuration& config) {
  auto given = [&]() -> const Configuration& { return config; };
  return CostForKey(stmt_index, KeyFor(stmt_index, InfosFor(config)), given);
}

double StatementCostCache::WorkloadCost(const Configuration& config) {
  // Relevance is looked up once per call, not once per statement.
  const std::vector<const IndexInfo*> infos = InfosFor(config);
  auto given = [&]() -> const Configuration& { return config; };
  double total = 0.0;
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    const double cost = CostForKey(i, KeyFor(i, infos), given);
    total += workload_->statements[i].weight * cost;
  }
  return total;
}

StatementCostCache::Step StatementCostCache::BeginStep(
    const Configuration& config) {
  const std::vector<const IndexInfo*> infos = InfosFor(config);
  auto given = [&]() -> const Configuration& { return config; };
  Step step;
  step.config = &config;
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    step.keys.push_back(KeyFor(i, infos));
    const double cost = CostForKey(i, step.keys[i], given, /*count_hit=*/false);
    step.costs.push_back(cost);
  }
  return step;
}

double StatementCostCache::WorkloadCostWith(const Step& step,
                                            const PhysicalIndexEstimate& added,
                                            const std::string& signature) {
  const IndexInfo& info = InfoFor(signature, added.def);
  std::string id;  // appended to each relevant statement's step key
  AppendU32(&id, info.id);
  std::optional<Configuration> trial;
  auto make_trial = [&]() -> const Configuration& {
    if (!trial.has_value()) {
      trial = *step.config;
      trial->Add(added);
    }
    return *trial;
  };
  // Same weighted terms in the same statement order as WorkloadCost.
  double total = 0.0;
  uint64_t reused = 0;
  for (size_t i = 0; i < workload_->statements.size(); ++i) {
    double cost = step.costs[i];
    if (info.relevant[i]) {
      cost = CostForKey(i, step.keys[i] + id, make_trial);
    } else {
      ++reused;
    }
    total += workload_->statements[i].weight * cost;
  }
  hits_.fetch_add(reused, std::memory_order_relaxed);
  return total;
}

}  // namespace capd
