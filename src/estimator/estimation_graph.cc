#include "estimator/estimation_graph.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "common/logging.h"

namespace capd {
namespace {

// (a & ~b) == 0, word by word; both sets are over one object's schema.
bool IsSubsetOf(const std::vector<uint64_t>& a,
                const std::vector<uint64_t>& b) {
  for (size_t w = 0; w < a.size(); ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

// Same object, clustering, compression, stored-column set and filter: the
// ColSet / SortOrder donor relation.
bool SameColumnSet(const IndexNode& a, const IndexNode& b) {
  return a.def.compression == b.def.compression &&
         a.def.clustered == b.def.clustered &&
         a.column_bits == b.column_bits && a.def.object == b.def.object &&
         a.filter == b.filter;
}

}  // namespace

EstimationGraph::EstimationGraph(const Database& db, SampleSource* source,
                                 const ErrorModel& model)
    : db_(&db), source_(source), model_(model), sampler_(db, source) {}

size_t EstimationGraph::AddNode(const IndexDef& def, bool is_target) {
  std::string sig = def.Signature();
  if (const auto it = by_signature_.find(sig); it != by_signature_.end()) {
    if (is_target) nodes_[it->second].is_target = true;
    return it->second;
  }
  const Schema& base = source_->ObjectSchema(def.object);
  IndexNode node;
  node.def = def;
  node.is_target = is_target;
  node.is_existing = db_->existing_index_bytes().count(sig) > 0;
  if (node.is_existing) node.state = NodeState::kSampled;  // free + exact
  node.column_bits.assign((base.num_columns() + 63) / 64, 0);
  for (const std::string& name : def.StoredColumns(base)) {
    const size_t column = base.ColumnIndex(name);
    node.columns.push_back(column);
    node.column_bits[column / 64] |= uint64_t{1} << (column % 64);
  }
  if (def.filter.has_value()) node.filter = def.filter->ToString();
  node.row_bytes = sampler_.RowBytes(def);
  const size_t id = nodes_.size();
  if (!def.clustered && def.key_columns.size() == 1 &&
      def.include_columns.empty()) {
    singletons_.emplace(std::make_tuple(def.object, def.compression,
                                        node.filter, node.columns[0]),
                        id);
  }
  nodes_.push_back(std::move(node));
  by_signature_.emplace(std::move(sig), id);
  return id;
}

size_t EstimationGraph::Singleton(size_t node_id, size_t column) {
  const IndexDef& def = nodes_[node_id].def;
  const auto it = singletons_.find(std::forward_as_tuple(
      def.object, def.compression, nodes_[node_id].filter, column));
  if (it != singletons_.end()) return it->second;
  IndexDef s;
  s.object = def.object;
  s.key_columns = {source_->ObjectSchema(def.object).column(column).name};
  s.compression = def.compression;
  s.filter = def.filter;
  return AddNode(s, /*is_target=*/false);
}

void EstimationGraph::AddDeduction(DeductionType type, size_t parent,
                                   std::vector<size_t> children) {
  deductions_.push_back(DeductionNode{type, parent, std::move(children)});
  deductions_by_parent_[parent].push_back(deductions_.size() - 1);
}

void EstimationGraph::AddTargets(const std::vector<IndexDef>& targets) {
  for (const IndexDef& t : targets) {
    CAPD_CHECK(t.compression != CompressionKind::kNone)
        << "only compressed indexes need size estimation: " << t.ToString();
    AddNode(t, /*is_target=*/true);
  }
  // Helper singleton nodes + deductions. Do this after all targets exist so
  // subset-target deductions are discoverable. New helper nodes appended
  // during generation are singletons and need no deductions of their own.
  const size_t initial = nodes_.size();
  for (size_t i = 0; i < initial; ++i) {
    if (!nodes_[i].deductions_generated) {
      nodes_[i].deductions_generated = true;
      GenerateDeductionsFor(i);
    }
  }
}

// Singleton() may grow nodes_, so node_id is re-read by index throughout.
void EstimationGraph::GenerateDeductionsFor(size_t node_id) {
  const size_t width = nodes_[node_id].columns.size();
  if (width <= 1) return;  // singleton: nothing to extrapolate from

  // --- ColSet: any other node with the same column set, for ORD-IND.
  // SortOrder: the same column set under a different key order, ORD-DEP
  // only. The donor's sampled build leaves the materialized sample rows in
  // the shared caches, so this node's exact-on-sample recompute costs no
  // further sample I/O. Donor pairs are symmetric; the greedy ready-check
  // (child must already be known) breaks the tie, so the first member of a
  // sort-order clique always samples. ---
  const bool order_dependent =
      IsOrderDependent(nodes_[node_id].def.compression);
  if (!order_dependent || enable_sort_order_) {
    const DeductionType type =
        order_dependent ? DeductionType::kSortOrder : DeductionType::kColSet;
    for (size_t j = 0; j < nodes_.size(); ++j) {
      if (j != node_id && SameColumnSet(nodes_[j], nodes_[node_id])) {
        AddDeduction(type, node_id, {j});
      }
    }
  }

  // --- ColExt: all-singletons partition. ---
  std::vector<size_t> singletons;
  for (size_t k = 0; k < width; ++k) {
    singletons.push_back(Singleton(node_id, nodes_[node_id].columns[k]));
  }
  AddDeduction(DeductionType::kColExt, node_id, std::move(singletons));

  // --- ColExt: subset-node + singletons-of-remainder partitions. Clustered
  // donors only via ColSet. ---
  for (size_t j = 0; j < nodes_.size(); ++j) {
    const IndexNode& other = nodes_[j];
    const IndexNode& node = nodes_[node_id];
    if (j == node_id || other.def.clustered ||
        other.def.compression != node.def.compression ||
        other.def.object != node.def.object || other.filter != node.filter ||
        other.columns.size() <= 1 || other.columns.size() >= width ||
        !IsSubsetOf(other.column_bits, node.column_bits)) {
      continue;
    }
    std::vector<size_t> children = {j};
    for (size_t k = 0; k < width; ++k) {
      const size_t column = nodes_[node_id].columns[k];
      if (((nodes_[j].column_bits[column / 64] >> (column % 64)) & 1) == 0) {
        children.push_back(Singleton(node_id, column));
      }
    }
    AddDeduction(DeductionType::kColExt, node_id, std::move(children));
  }
}

void EstimationGraph::RefreshCosts(double f, ThreadPool* pool) {
  // Probes are size-only except for partial indexes, which scan the
  // object's sample once (filter hit counting). The probes are independent
  // and the shared sample caches are thread-safe, so they batch across the
  // pool; writes go to disjoint nodes. Once a cancel fires, remaining
  // probes are skipped (cost 0) — the plan built from them is discarded by
  // the cancelled caller anyway.
  ParallelFor(pool, nodes_.size(), [&](size_t i) {
    IndexNode& node = nodes_[i];
    node.cost_pages =
        node.is_existing || Cancelled()
            ? 0.0
            : sampler_.PredictCostPages(node.def, f, node.row_bytes);
  });
}

ErrorStats EstimationGraph::DeductionError(const DeductionNode& d,
                                           size_t parent, double f,
                                           ErrorProduct child_terms) const {
  const CompressionKind kind = nodes_[parent].def.compression;
  if (d.type == DeductionType::kSortOrder) {
    // Executed as a SampleCF recompute on the donor's sample: accuracy is
    // exactly a sampled run's, independent of the donor's own error.
    return model_.SampleCf(kind, f);
  }
  child_terms.Add(d.type == DeductionType::kColSet
                      ? model_.ColSet(kind)
                      : model_.ColExt(kind,
                                      static_cast<int>(d.children.size())));
  return child_terms.Result();
}

ErrorStats EstimationGraph::NodeError(size_t i, double f) const {
  const IndexNode& node = nodes_[i];
  if (node.is_existing) return ErrorStats{};  // exact
  switch (node.state) {
    case NodeState::kSampled:
      return model_.SampleCf(node.def.compression, f);
    case NodeState::kDeduced: {
      CAPD_CHECK_GE(node.chosen_deduction, 0);
      const DeductionNode& d = deductions_[node.chosen_deduction];
      ErrorProduct terms;
      if (d.type != DeductionType::kSortOrder) {
        for (size_t c : d.children) terms.Add(NodeError(c, f));
      }
      return DeductionError(d, i, f, terms);
    }
    case NodeState::kNone:
      break;
  }
  // Unknown: effectively infinite error.
  return ErrorStats{0.0, 1e9};
}

void EstimationGraph::ResetStates() {
  for (IndexNode& node : nodes_) {
    node.state = node.is_existing ? NodeState::kSampled : NodeState::kNone;
    node.chosen_deduction = -1;
  }
}

double EstimationGraph::TotalSampledCost() const {
  double cost = 0.0;
  for (const IndexNode& node : nodes_) {
    if (node.state == NodeState::kSampled && !node.is_existing) {
      cost += node.cost_pages;
    }
  }
  return cost;
}

double EstimationGraph::AllSampledCost(double f, ThreadPool* pool) {
  RefreshCosts(f, pool);
  double cost = 0.0;
  for (const IndexNode& node : nodes_) {
    if (node.is_target && !node.is_existing) cost += node.cost_pages;
  }
  return cost;
}

double EstimationGraph::SampleAllTargets(double f, ThreadPool* pool) {
  ResetStates();
  RefreshCosts(f, pool);
  for (IndexNode& node : nodes_) {
    if (node.is_target && node.state == NodeState::kNone) {
      node.state = NodeState::kSampled;
    }
  }
  return TotalSampledCost();
}

void EstimationGraph::PruneUnused() {
  // From wider to narrower: drop helper nodes not used by any deduced
  // parent (paper's lines 13-14).
  std::vector<size_t> order(nodes_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return nodes_[a].columns.size() > nodes_[b].columns.size();
  });
  for (size_t i : order) {
    IndexNode& node = nodes_[i];
    if (node.is_target || node.is_existing || node.state == NodeState::kNone) {
      continue;
    }
    bool used = false;
    for (size_t j = 0; j < nodes_.size() && !used; ++j) {
      if (nodes_[j].state != NodeState::kDeduced) continue;
      const DeductionNode& d = deductions_[nodes_[j].chosen_deduction];
      used = std::find(d.children.begin(), d.children.end(), i) != d.children.end();
    }
    if (!used) {
      node.state = NodeState::kNone;
      node.chosen_deduction = -1;
    }
  }
}

double EstimationGraph::Greedy(double f, double e, double q,
                               ThreadPool* pool) {
  ResetStates();
  RefreshCosts(f, pool);

  // Narrow to wide over targets.
  std::vector<size_t> targets;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_target && nodes_[i].state == NodeState::kNone) {
      targets.push_back(i);
    }
  }
  std::sort(targets.begin(), targets.end(), [this](size_t a, size_t b) {
    return nodes_[a].columns.size() < nodes_[b].columns.size();
  });

  for (size_t t : targets) {
    if (nodes_[t].state != NodeState::kNone) continue;  // e.g. existing
    const auto dit = deductions_by_parent_.find(t);

    // Line 6-7: a deduction whose children are all known and which meets
    // the accuracy constraint. Pick the one with the highest probability.
    int best_ded = -1;
    double best_prob = -1.0;
    if (dit != deductions_by_parent_.end()) {
      for (size_t di : dit->second) {
        const DeductionNode& d = deductions_[di];
        bool ready = true;
        ErrorProduct terms;
        for (size_t c : d.children) {
          if (nodes_[c].state == NodeState::kNone) {
            ready = false;
            break;
          }
          terms.Add(NodeError(c, f));
        }
        if (!ready) continue;
        const double prob =
            ErrorWithinProbability(DeductionError(d, t, f, terms), e);
        if (prob >= q && prob > best_prob) {
          best_prob = prob;
          best_ded = static_cast<int>(di);
        }
      }
    }
    if (best_ded >= 0) {
      nodes_[t].state = NodeState::kDeduced;
      nodes_[t].chosen_deduction = best_ded;
      continue;
    }

    // Line 8-9: enable a deduction by sampling its unknown children if that
    // is cheaper than sampling this node.
    int best_enable = -1;
    double best_enable_cost = nodes_[t].cost_pages;
    if (dit != deductions_by_parent_.end()) {
      for (size_t di : dit->second) {
        const DeductionNode& d = deductions_[di];
        double extra = 0.0;
        ErrorProduct terms;
        for (size_t c : d.children) {
          if (nodes_[c].state == NodeState::kNone) {
            extra += nodes_[c].cost_pages;
            terms.Add(model_.SampleCf(nodes_[c].def.compression, f));
          } else {
            terms.Add(NodeError(c, f));
          }
        }
        const double prob =
            ErrorWithinProbability(DeductionError(d, t, f, terms), e);
        if (prob >= q && extra < best_enable_cost) {
          best_enable_cost = extra;
          best_enable = static_cast<int>(di);
        }
      }
    }
    if (best_enable >= 0) {
      const DeductionNode& d = deductions_[best_enable];
      for (size_t c : d.children) {
        if (nodes_[c].state == NodeState::kNone) {
          nodes_[c].state = NodeState::kSampled;
        }
      }
      nodes_[t].state = NodeState::kDeduced;
      nodes_[t].chosen_deduction = best_enable;
      continue;
    }

    // Line 11: sample it.
    nodes_[t].state = NodeState::kSampled;
  }

  PruneUnused();
  return TotalSampledCost();
}

bool EstimationGraph::AssignmentSatisfies(double e, double q, double f) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const IndexNode& node = nodes_[i];
    if (!node.is_target) continue;
    if (ErrorWithinProbability(NodeError(i, f), e) < q) return false;
  }
  return true;
}

bool EstimationGraph::DependsOn(size_t child, size_t node) const {
  if (child == node) return true;
  if (nodes_[child].state != NodeState::kDeduced) return false;
  const DeductionNode& d = deductions_[nodes_[child].chosen_deduction];
  for (size_t c : d.children) {
    if (DependsOn(c, node)) return true;
  }
  return false;
}

void EstimationGraph::OptimalRecurse(const std::vector<size_t>& order,
                                     std::vector<char>* required,
                                     double cost_so_far, double e, double q,
                                     double f, double* best_cost,
                                     std::vector<IndexNode>* best_assignment) {
  if (cost_so_far >= *best_cost) return;  // bound
  // Next undecided required node (targets are always required). Scan from
  // the front each time: ColSet donors share the parent's width and may sit
  // anywhere in `order`.
  size_t pos = order.size();
  for (size_t p = 0; p < order.size(); ++p) {
    const size_t i = order[p];
    if ((nodes_[i].is_target || (*required)[i]) &&
        nodes_[i].state == NodeState::kNone) {
      pos = p;
      break;
    }
  }
  if (pos == order.size()) {
    // Complete assignment; errors were enforced per choice below.
    *best_cost = cost_so_far;
    *best_assignment = nodes_;
    return;
  }
  const size_t i = order[pos];

  // Branch 1: sample it.
  nodes_[i].state = NodeState::kSampled;
  OptimalRecurse(order, required, cost_so_far + nodes_[i].cost_pages, e, q, f,
                 best_cost, best_assignment);
  nodes_[i].state = NodeState::kNone;

  // Branch 2: each deduction whose composed error can satisfy the
  // constraint assuming each child is at best SampleCF-accurate (children
  // are never better than that, so this is an admissible filter).
  const auto dit = deductions_by_parent_.find(i);
  if (dit != deductions_by_parent_.end()) {
    for (size_t di : dit->second) {
      const DeductionNode& d = deductions_[di];
      bool cyclic = false;
      ErrorProduct terms;
      for (size_t c : d.children) {
        if (DependsOn(c, i)) {
          cyclic = true;
          break;
        }
        terms.Add(nodes_[c].is_existing
                      ? ErrorStats{}
                      : model_.SampleCf(nodes_[c].def.compression, f));
      }
      if (cyclic) continue;
      if (ErrorWithinProbability(DeductionError(d, i, f, terms), e) < q) {
        continue;
      }

      nodes_[i].state = NodeState::kDeduced;
      nodes_[i].chosen_deduction = static_cast<int>(di);
      std::vector<size_t> newly;
      for (size_t c : d.children) {
        if (!(*required)[c]) {
          (*required)[c] = 1;
          newly.push_back(c);
        }
      }
      OptimalRecurse(order, required, cost_so_far, e, q, f, best_cost,
                     best_assignment);
      for (size_t c : newly) (*required)[c] = 0;
      nodes_[i].state = NodeState::kNone;
      nodes_[i].chosen_deduction = -1;
    }
  }
}

double EstimationGraph::Optimal(double f, double e, double q,
                                ThreadPool* pool) {
  ResetStates();
  RefreshCosts(f, pool);
  std::vector<size_t> order(nodes_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Widest first so deduction children (narrower) are decided after their
  // parents.
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return nodes_[a].columns.size() > nodes_[b].columns.size();
  });
  std::vector<char> required(nodes_.size(), 0);
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<IndexNode> best_assignment;
  OptimalRecurse(order, &required, 0.0, e, q, f, &best_cost,
                 &best_assignment);
  if (!best_assignment.empty()) {
    nodes_ = std::move(best_assignment);
    // Final verification pass: if the lazily-composed errors violate the
    // constraint, fall back to greedy (which never does worse than All).
    if (!AssignmentSatisfies(e, q, f)) return Greedy(f, e, q, pool);
  }
  return best_cost;
}

std::map<std::string, SampleCfResult> EstimationGraph::Execute(
    double f, ThreadPool* pool, EstimationCache* cache, size_t* cache_hits) {
  std::vector<std::optional<SampleCfResult>> results(nodes_.size());
  DeductionEngine engine(*db_, source_, f);

  // SAMPLED nodes are independent of each other — these are the leaves of
  // every deduction chain and carry the index-build cost, so they are the
  // parallel section. Compression variants of one structure are grouped so
  // they share the materialized sample rows and the uncompressed reference
  // pack (one materialize, N compressed packs); existing (catalog-served)
  // nodes stay singleton groups. Leaves already in the cross-round cache at
  // exactly this fraction are served up front and skip the build entirely.
  std::vector<std::vector<size_t>> groups;
  std::map<std::string, size_t> group_of;  // structure signature -> group
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].state != NodeState::kSampled) continue;
    if (nodes_[i].is_existing) {
      groups.push_back({i});
      continue;
    }
    if (cache != nullptr) {
      results[i] = cache->Lookup(nodes_[i].def.Signature(), f);
      if (results[i].has_value()) {
        if (cache_hits != nullptr) ++(*cache_hits);
        continue;
      }
    }
    const std::string key = nodes_[i].def.StructureSignature();
    const auto it = group_of.find(key);
    if (it == group_of.end()) {
      group_of[key] = groups.size();
      groups.push_back({i});
    } else {
      groups[it->second].push_back(i);
    }
  }
  // Phase 1: the groups' base-table samples are drawn here, on the calling
  // thread and across the pool: a draw a leaf started would run on a pool
  // worker, where ParallelFor runs inline.
  std::set<std::string> objects;
  for (const std::vector<size_t>& members : groups) {
    const IndexNode& first = nodes_[members.front()];
    if (!first.is_existing) objects.insert(first.def.object);
  }
  for (const std::string& object : objects) {
    if (Cancelled()) break;
    source_->DrawSample(object, f, pool);
  }
  // Phase 2: the leaf groups, across the pool.
  std::vector<std::vector<SampleCfResult>> group_results =
      ParallelMap<std::vector<SampleCfResult>>(
          pool, groups.size(), [&](size_t g) -> std::vector<SampleCfResult> {
            // Deadlines must bind inside the batch: once a cancel fires,
            // remaining index builds are skipped. An empty vector (a group
            // always has >= 1 member) marks the group as not computed.
            if (Cancelled()) return {};
            const std::vector<size_t>& members = groups[g];
            const IndexNode& first = nodes_[members.front()];
            if (first.is_existing) {
              SampleCfResult r;
              r.est_bytes = static_cast<double>(
                  db_->existing_index_bytes().at(first.def.Signature()));
              r.est_tuples = sampler_.EstimateFullTuples(first.def, f);
              r.est_uncompressed_bytes =
                  sampler_.UncompressedFullBytes(first.def, r.est_tuples);
              r.cf = r.est_bytes / std::max(1.0, r.est_uncompressed_bytes);
              return {r};
            }
            std::vector<IndexDef> defs;
            defs.reserve(members.size());
            for (size_t m : members) defs.push_back(nodes_[m].def);
            return sampler_.EstimateGroup(defs, f);
          });
  for (size_t g = 0; g < groups.size(); ++g) {
    if (group_results[g].size() != groups[g].size()) continue;  // cancelled
    for (size_t m = 0; m < groups[g].size(); ++m) {
      const size_t i = groups[g][m];
      results[i] = group_results[g][m];
      if (cache != nullptr && !nodes_[i].is_existing) {
        cache->Insert(nodes_[i].def.Signature(), f, group_results[g][m]);
      }
    }
  }
  // A cancelled batch returns the completed leaves only; deduction would
  // compose from missing children, so the caller gets the partial map and
  // is expected to discard it (EstimateAll reports the cancellation).
  std::map<std::string, SampleCfResult> estimates;
  if (Cancelled()) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (results[i].has_value()) {
        estimates[nodes_[i].def.Signature()] = *results[i];
      }
    }
    return estimates;
  }

  // Phase 3: DEDUCED nodes compose their children's results via the
  // deduction formulas — cheap arithmetic, run serially in dependency
  // order: a deduced node runs only after all its children have results
  // (narrow-to-wide alone cannot order same-width ColSet pairs).
  std::vector<size_t> pending;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].state == NodeState::kDeduced) pending.push_back(i);
  }
  std::sort(pending.begin(), pending.end(), [this](size_t a, size_t b) {
    return nodes_[a].columns.size() < nodes_[b].columns.size();
  });
  size_t stall_guard = 0;
  while (!pending.empty()) {
    CAPD_CHECK_LT(stall_guard++, nodes_.size() * nodes_.size() + 16u)
        << "cyclic deduction plan";
    const size_t i = pending.front();
    pending.erase(pending.begin());
    const IndexNode& node = nodes_[i];
    const DeductionNode& d = deductions_[node.chosen_deduction];
    if (!std::all_of(d.children.begin(), d.children.end(),
                     [&](size_t c) { return results[c].has_value(); })) {
      pending.push_back(i);  // retry after its children
      continue;
    }
    if (d.type == DeductionType::kSortOrder) {
      // Exact-on-sample recompute: the donor's build already materialized
      // and cached the sample, so only this node's own pack runs — charged
      // zero additional sampling I/O. Bit-for-bit equal to fresh sampling
      // by construction (samples are seeded per cache key).
      results[i] = sampler_.EstimateSortOrderDeduced(node.def, f);
      continue;
    }
    SampleCfResult r;
    r.est_tuples = sampler_.EstimateFullTuples(node.def, f);
    r.est_uncompressed_bytes =
        sampler_.UncompressedFullBytes(node.def, r.est_tuples);
    if (d.type == DeductionType::kColSet) {
      r.est_bytes = results[d.children[0]]->est_bytes;
    } else {
      std::vector<KnownSize> children;
      for (size_t c : d.children) {
        const SampleCfResult& cr = *results[c];
        KnownSize k;
        k.def = nodes_[c].def;
        k.compressed_bytes = cr.est_bytes;
        k.uncompressed_bytes = cr.est_uncompressed_bytes;
        k.ns_bytes = cr.est_ns_bytes;
        k.tuples = cr.est_tuples;
        children.push_back(std::move(k));
      }
      r.est_bytes = engine.DeduceColExt(node.def, r.est_uncompressed_bytes,
                                        r.est_tuples, children);
    }
    r.cf = r.est_bytes / std::max(1.0, r.est_uncompressed_bytes);
    r.cost_pages = 0.0;
    results[i] = r;
  }

  // Return only targets.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const IndexNode& node = nodes_[i];
    if (!node.is_target) continue;
    CAPD_CHECK(results[i].has_value())
        << "target not estimated: " << node.def.ToString();
    estimates[node.def.Signature()] = *results[i];
  }
  return estimates;
}

size_t EstimationGraph::NumSampled() const {
  size_t n = 0;
  for (const IndexNode& node : nodes_) {
    if (node.state == NodeState::kSampled && !node.is_existing) ++n;
  }
  return n;
}

size_t EstimationGraph::NumDeduced() const {
  size_t n = 0;
  for (const IndexNode& node : nodes_) {
    if (node.is_target && node.state == NodeState::kDeduced) ++n;
  }
  return n;
}

size_t EstimationGraph::NumSortOrderDeduced() const {
  size_t n = 0;
  for (const IndexNode& node : nodes_) {
    if (node.is_target && node.state == NodeState::kDeduced &&
        node.chosen_deduction >= 0 &&
        deductions_[node.chosen_deduction].type == DeductionType::kSortOrder) {
      ++n;
    }
  }
  return n;
}

}  // namespace capd
