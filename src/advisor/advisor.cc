#include "advisor/advisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/logging.h"

namespace capd {

double Advisor::ChargedBytes(const Configuration& config) const {
  double charged = 0.0;
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    charged = ChargedWith(charged, idx);
  }
  return charged;
}

double Advisor::ChargedWith(double charged,
                            const PhysicalIndexEstimate& idx) const {
  charged += idx.bytes;
  if (idx.def.clustered && db_->HasTable(idx.def.object)) {
    charged -= static_cast<double>(db_->table(idx.def.object).HeapBytes());
  }
  return charged;
}

bool Advisor::CancelRequested() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

void Advisor::ReportProgress(const char* phase) const {
  // Fault hooks run first so an injected fault (thrown TransientTuningError
  // or a flipped cancel flag) lands before observers hear about the phase.
  if (options_.fault_hook) options_.fault_hook(phase);
  if (options_.progress) options_.progress(phase);
}

double Advisor::WorkloadCost(const Workload& workload,
                             const Configuration& config,
                             StatementCostCache* cost_cache,
                             AdvisorResult* result) const {
  if (result != nullptr) {
    result->what_if_calls += workload.statements.size();
    // Cached costings are tallied from the cache's own counters at the end
    // of Tune; only uncached costing is known to run the optimizer here.
    if (cost_cache == nullptr) {
      result->stmt_costs_computed += workload.statements.size();
    }
  }
  if (cost_cache != nullptr) return cost_cache->WorkloadCost(config);
  return optimizer_->WorkloadCost(workload, config);
}

double Advisor::PooledWorkloadCost(const Workload& workload,
                                   const Configuration& config,
                                   AdvisorResult* result) const {
  if (result != nullptr) {
    result->what_if_calls += workload.statements.size();
    result->stmt_costs_computed += workload.statements.size();
  }
  const std::vector<double> costs = ParallelMap<double>(
      options_.pool, workload.statements.size(), [&](size_t i) {
        // Remaining costings are skipped once a cancel fires; the partial
        // sum is meaningless, so callers must re-check CancelRequested()
        // before consuming the total.
        if (CancelRequested()) return 0.0;
        return optimizer_->Cost(workload.statements[i], config);
      });
  // Same weighted terms summed in the same statement order as
  // WhatIfOptimizer::WorkloadCost — bit-identical at any thread count.
  double total = 0.0;
  for (size_t i = 0; i < workload.statements.size(); ++i) {
    total += workload.statements[i].weight * costs[i];
  }
  return total;
}

std::map<std::string, PhysicalIndexEstimate> Advisor::EstimateSizes(
    const std::vector<IndexDef>& candidates, AdvisorResult* result) {
  std::map<std::string, PhysicalIndexEstimate> sizes;
  std::vector<IndexDef> uncompressed;
  std::vector<IndexDef> compressed;
  for (const IndexDef& def : candidates) {
    (def.compression == CompressionKind::kNone ? uncompressed : compressed)
        .push_back(def);
  }
  const std::vector<SampleCfResult> plain =
      sizes_->UncompressedSizeAll(uncompressed);
  for (size_t i = 0; i < uncompressed.size(); ++i) {
    PhysicalIndexEstimate est;
    est.def = uncompressed[i];
    est.bytes = plain[i].est_bytes;
    est.tuples = plain[i].est_tuples;
    sizes[uncompressed[i].Signature()] = est;
  }
  const SizeEstimator::BatchResult batch = sizes_->EstimateAll(compressed);
  for (const IndexDef& def : compressed) {
    const auto it = batch.estimates.find(def.Signature());
    if (it == batch.estimates.end()) {
      // A batch may only come back short when a cooperative cancel stopped
      // it mid-estimation; every caller discards the partial map once the
      // flag is up, so skipping the hole is safe. Anything else is a bug.
      CAPD_CHECK(CancelRequested()) << def.ToString();
      continue;
    }
    PhysicalIndexEstimate est;
    est.def = def;
    est.bytes = it->second.est_bytes;
    est.tuples = it->second.est_tuples;
    sizes[def.Signature()] = est;
  }
  if (result != nullptr) {
    result->estimation_cost_pages += batch.total_cost_pages;
    // Only an empty (all-uncompressed) batch picks no fraction
    // (chosen_f == 0); keep the last real one rather than clobbering the
    // report.
    if (batch.chosen_f > 0.0) result->chosen_f = batch.chosen_f;
    result->num_sampled += batch.num_sampled;
    result->num_deduced += batch.num_deduced;
  }
  return sizes;
}

std::vector<IndexDef> Advisor::SelectCandidates(
    const Workload& workload, const std::vector<IndexDef>& candidates,
    const std::map<std::string, PhysicalIndexEstimate>& sizes,
    StatementCostCache* cost_cache, AdvisorResult* result) const {
  std::vector<IndexDef> selected;
  std::set<std::string> kept;

  // Every costing the loop below needs is independent: per SELECT query,
  // its base (empty-configuration) cost plus one single-index cost per
  // candidate. Fan them all across the pool — concurrent misses warm the
  // shared StatementCostCache for the first enumeration step — then reduce
  // serially in (query, candidate) order so the selected pool matches the
  // serial loop to the bit at any thread count.
  std::vector<size_t> selects;
  selects.reserve(workload.statements.size());
  for (size_t si = 0; si < workload.statements.size(); ++si) {
    if (workload.statements[si].type == StatementType::kSelect) {
      selects.push_back(si);
    }
  }
  const size_t stride = 1 + candidates.size();  // base cost + one per index

  // Each candidate's one-index configuration and its budget charge, built
  // once and shared by every query.
  std::vector<Configuration> singles(candidates.size());
  std::vector<double> charges(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    const auto it = sizes.find(candidates[c].Signature());
    CAPD_CHECK(it != sizes.end()) << candidates[c].ToString();
    singles[c].Add(it->second);
    charges[c] = ChargedBytes(singles[c]);
  }
  auto keep = [&](size_t c) {
    if (kept.insert(singles[c].signature(0)).second) {
      selected.push_back(candidates[c]);
    }
  };

  auto stmt_cost = [&](size_t stmt_index, const Configuration& config) {
    return cost_cache != nullptr
               ? cost_cache->Cost(stmt_index, config)
               : optimizer_->Cost(workload.statements[stmt_index], config);
  };
  const Configuration empty;
  const std::vector<double> costs = ParallelMap<double>(
      options_.pool, selects.size() * stride, [&](size_t j) {
        // Skipped costings yield 0.0, which makes every candidate look
        // irrelevant (cost >= base_cost) — harmless, because Tune discards
        // the selection as soon as it sees the cancel flag. The cost cache
        // is never fed skipped values.
        if (CancelRequested()) return 0.0;
        const size_t si = selects[j / stride];
        const size_t c = j % stride;
        return stmt_cost(si, c == 0 ? empty : singles[c - 1]);
      });
  if (result != nullptr) {
    result->what_if_calls += selects.size() * candidates.size();
    if (cost_cache == nullptr) {
      result->stmt_costs_computed += selects.size() * stride;
    }
  }

  for (size_t q = 0; q < selects.size(); ++q) {
    // Serial reduction over this query's precomputed costs.
    struct Entry {
      size_t c;  // candidate position
      double cost;
      double bytes;
    };
    std::vector<Entry> entries;
    const double base_cost = costs[q * stride];
    for (size_t c = 0; c < candidates.size(); ++c) {
      const double cost = costs[q * stride + 1 + c];
      if (cost >= base_cost) continue;  // irrelevant to this query
      // Size dimension of the skyline is the *budget charge*: a clustered
      // index replaces the heap, so its effective footprint can be tiny (or
      // negative when compressed) even though the structure is large.
      entries.push_back(Entry{c, cost, charges[c]});
    }

    if (options_.selection == CandidateSelectionMode::kTopK) {
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.cost < b.cost; });
      const size_t k = std::min(kTopK, entries.size());
      for (size_t i = 0; i < k; ++i) keep(entries[i].c);
    } else {
      // Skyline of (bytes, cost): keep entries no other entry dominates
      // (smaller AND faster). O(n^2), negligible next to what-if calls.
      for (const Entry& e : entries) {
        bool dominated = false;
        for (const Entry& o : entries) {
          if (o.c == e.c) continue;
          const bool better_or_equal = o.cost <= e.cost && o.bytes <= e.bytes;
          const bool strictly_better = o.cost < e.cost || o.bytes < e.bytes;
          if (better_or_equal && strictly_better) {
            dominated = true;
            break;
          }
        }
        if (!dominated) keep(e.c);
      }
    }
  }
  return selected;
}

Configuration Advisor::Enumerate(
    const Workload& workload, const std::vector<IndexDef>& pool,
    const std::map<std::string, PhysicalIndexEstimate>& sizes,
    double budget_bytes, StatementCostCache* cost_cache,
    AdvisorResult* result) const {
  Configuration config;
  double current_cost = WorkloadCost(workload, config, cost_cache, result);

  // Every pool entry's signatures and size estimate, rendered and looked
  // up once per call. Configuration members always come from the pool, so
  // `position` maps a member's recorded signature back to its entry.
  std::vector<std::string> signatures(pool.size());
  std::vector<std::string> structures(pool.size());
  std::vector<const PhysicalIndexEstimate*> ests(pool.size());
  std::unordered_map<std::string, size_t> position;
  for (size_t i = 0; i < pool.size(); ++i) {
    signatures[i] = pool[i].Signature();
    structures[i] = pool[i].StructureSignature();
    const auto it = sizes.find(signatures[i]);
    CAPD_CHECK(it != sizes.end()) << pool[i].ToString();
    ests[i] = &it->second;
    position.emplace(signatures[i], i);
  }
  auto structure_of = [&](const std::string& signature) -> const std::string& {
    return structures[position.at(signature)];
  };

  // Trial costing, callable from pool workers (the cache and the optimizer
  // are both thread-safe). what_if accounting happens serially afterwards
  // so AdvisorResult is never touched concurrently.
  auto trial_cost = [&](const Configuration& trial) {
    return cost_cache != nullptr ? cost_cache->WorkloadCost(trial)
                                 : optimizer_->WorkloadCost(workload, trial);
  };
  auto charge_calls = [&](size_t trials) {
    if (result == nullptr) return;
    result->what_if_calls += trials * workload.statements.size();
    if (cost_cache == nullptr) {
      result->stmt_costs_computed += trials * workload.statements.size();
    }
  };
  ThreadPool* workers = options_.pool;

  while (true) {
    // Cooperative cancel: between greedy steps the configuration is always
    // coherent, so stopping here leaves the best design found so far.
    if (CancelRequested()) {
      if (result != nullptr) result->cancelled = true;
      break;
    }
    // An entry is addable unless a member shares its structure (the entry
    // itself, or a compressed variant: those compete and are never useful
    // together for our optimizer) or it is a second clustered index.
    std::vector<const std::string*> taken;  // the members' structures
    for (size_t m = 0; m < config.size(); ++m) {
      taken.push_back(&structure_of(config.signature(m)));
    }
    std::vector<size_t> addable;
    addable.reserve(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      const bool shares = std::any_of(
          taken.begin(), taken.end(),
          [&](const std::string* s) { return *s == structures[i]; });
      const bool second_clustered =
          pool[i].clustered && config.HasClusteredOn(pool[i].object);
      if (!shares && !second_clustered) addable.push_back(i);
    }
    // Evaluate every addable candidate. The trials are independent, so
    // they fan out across the pool; the reduction below walks them in pool
    // order with the same comparisons as the serial loop, which makes the
    // parallel result bit-identical at any thread count. Cached trials
    // re-cost only the statements their added entry is relevant to.
    StatementCostCache::Step step;
    if (cost_cache != nullptr) step = cost_cache->BeginStep(config);
    const std::vector<double> trial_costs =
        ParallelMap<double>(workers, addable.size(), [&](size_t k) {
          // Infinity reads as "no benefit", so skipped trials can never be
          // picked; the next loop iteration then observes the flag and
          // breaks with the coherent best-so-far configuration.
          if (CancelRequested()) {
            return std::numeric_limits<double>::infinity();
          }
          const size_t i = addable[k];
          if (cost_cache != nullptr) {
            return cost_cache->WorkloadCostWith(step, *ests[i], signatures[i]);
          }
          Configuration trial = config;
          trial.Add(*ests[i]);
          return optimizer_->WorkloadCost(workload, trial);
        });
    charge_calls(addable.size());

    const double charged = ChargedBytes(config);
    int best_fit = -1;       // best candidate that fits the budget
    double best_fit_score = 0.0;
    double best_fit_cost = current_cost;
    int best_any = -1;       // best candidate ignoring the budget
    double best_any_benefit = 0.0;

    for (size_t k = 0; k < addable.size(); ++k) {
      const size_t i = addable[k];
      const double cost = trial_costs[k];
      const double benefit = current_cost - cost;
      if (benefit <= 1e-9) continue;
      const bool fits = ChargedWith(charged, *ests[i]) <= budget_bytes;
      const double score =
          options_.enumeration == EnumerationMode::kDensityGreedy
              ? benefit / std::max(1.0, ests[i]->bytes)
              : benefit;
      if (fits && score > best_fit_score) {
        best_fit_score = score;
        best_fit = static_cast<int>(i);
        best_fit_cost = cost;
      }
      if (benefit > best_any_benefit) {
        best_any_benefit = benefit;
        best_any = static_cast<int>(i);
      }
    }

    if (options_.trace) {
      std::fprintf(stderr, "[enum] step: best_fit=%s best_any=%s\n",
                   best_fit >= 0 ? pool[best_fit].ToString().c_str() : "-",
                   best_any >= 0 ? pool[best_any].ToString().c_str() : "-");
    }

    // Backtracking (Section 6.2): if the overall-best choice is oversized,
    // try to recover it by swapping one or more members for compressed
    // variants. Swaps are applied greedily until the configuration fits:
    // prefer a swap that fits immediately with the best workload cost,
    // otherwise the one freeing the most space (to converge).
    if (options_.backtracking && best_any >= 0 && best_any != best_fit &&
        ChargedWith(charged, *ests[best_any]) > budget_bytes) {
      Configuration best_recovered;
      double best_recovered_cost = std::numeric_limits<double>::infinity();
      Configuration work = config;
      work.Add(*ests[best_any]);
      for (int round = 0; round < 8; ++round) {
        // Viable swaps are gathered serially (cheap size/signature checks),
        // the in-budget ones are what-if costed across the pool, and the
        // winner is reduced in (member, replacement) scan order — the exact
        // tie-breaking of the serial loop.
        std::vector<Configuration> fit_swaps;
        int reduce_member = -1, reduce_repl = -1;
        double reduce_amount = 0.0;
        const auto& members = work.indexes();
        for (int m = 0; m < static_cast<int>(members.size()); ++m) {
          const PhysicalIndexEstimate& member = members[m];
          const std::string& member_signature = work.signature(m);
          const std::string& member_structure = structure_of(member_signature);
          for (int p = 0; p < static_cast<int>(pool.size()); ++p) {
            if (structures[p] != member_structure) continue;
            if (signatures[p] == member_signature) continue;
            const PhysicalIndexEstimate& repl_est = *ests[p];
            if (repl_est.bytes >= member.bytes) continue;
            Configuration trial = work;
            CAPD_CHECK(trial.Remove(member_signature));
            trial.Add(repl_est);
            if (ChargedBytes(trial) <= budget_bytes) {
              fit_swaps.push_back(std::move(trial));
            } else if (member.bytes - repl_est.bytes > reduce_amount) {
              reduce_amount = member.bytes - repl_est.bytes;
              reduce_member = m;
              reduce_repl = p;
            }
          }
        }
        const std::vector<double> swap_costs =
            ParallelMap<double>(workers, fit_swaps.size(), [&](size_t k) {
              // Infinite swap costs can never beat best_fit/current, so a
              // cancel mid-backtrack leaves the configuration untouched.
              if (CancelRequested()) {
                return std::numeric_limits<double>::infinity();
              }
              return trial_cost(fit_swaps[k]);
            });
        charge_calls(fit_swaps.size());
        int fit_swap = -1;
        double fit_swap_cost = std::numeric_limits<double>::infinity();
        for (size_t k = 0; k < fit_swaps.size(); ++k) {
          if (swap_costs[k] < fit_swap_cost) {
            fit_swap_cost = swap_costs[k];
            fit_swap = static_cast<int>(k);
          }
        }
        if (fit_swap >= 0) {
          if (fit_swap_cost < best_recovered_cost) {
            best_recovered_cost = fit_swap_cost;
            best_recovered = std::move(fit_swaps[fit_swap]);
          }
          break;
        }
        if (reduce_member < 0) break;  // no further swaps possible
        const std::string gone = work.signature(reduce_member);
        work.Remove(gone);
        work.Add(*ests[reduce_repl]);
      }
      if (options_.trace) {
        std::fprintf(stderr, "[enum] backtrack: recovered=%s cost=%.1f vs fit=%.1f cur=%.1f\n",
                     best_recovered.size() > 0 ? best_recovered.ToString().c_str() : "-",
                     best_recovered_cost, best_fit_cost, current_cost);
      }
      if (best_recovered.size() > 0 &&
          best_recovered_cost < std::min(best_fit_cost, current_cost)) {
        config = best_recovered;
        current_cost = best_recovered_cost;
        continue;
      }
    }

    if (best_fit < 0) break;
    config.Add(*ests[best_fit]);
    current_cost = best_fit_cost;
  }
  return config;
}

AdvisorResult Advisor::Tune(const Workload& workload, double budget_bytes) {
  AdvisorResult result;
  CandidateGenerator generator(*db_, *optimizer_, mvs_, options_);
  using Clock = std::chrono::steady_clock;
  auto millis_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  // Cancellation can land between any two phases; the partial result (best
  // configuration so far, flagged `cancelled`) is always coherent.
  auto cancelled = [&]() {
    if (!CancelRequested()) return false;
    result.cancelled = true;
    return true;
  };

  // 1. Syntactically relevant candidates + compressed variants.
  auto t0 = Clock::now();
  std::vector<IndexDef> candidates = generator.GenerateForWorkload(workload);
  ReportProgress("candidates");
  if (cancelled()) return result;

  // 2. Size estimation for every candidate (Section 5 framework).
  std::map<std::string, PhysicalIndexEstimate> sizes =
      EstimateSizes(candidates, &result);
  result.estimation_ms += millis_since(t0);
  ReportProgress("estimation");
  if (cancelled()) return result;

  // The per-statement what-if cost cache lives for the whole run: nothing
  // within one Tune invalidates a statement cost (database and sizes are
  // fixed), and the single-index costings of candidate selection double as
  // warm-up for the first enumeration step.
  std::unique_ptr<StatementCostCache> cost_cache;
  if (options_.cost_cache) {
    cost_cache =
        std::make_unique<StatementCostCache>(*db_, *optimizer_, workload);
  }

  // 3. Per-query candidate selection (top-k or skyline).
  t0 = Clock::now();
  std::vector<IndexDef> selected =
      SelectCandidates(workload, candidates, sizes, cost_cache.get(), &result);
  result.selection_ms += millis_since(t0);
  ReportProgress("selection");
  if (cancelled()) {
    if (cost_cache != nullptr) {
      result.stmt_costs_computed += cost_cache->misses();
      result.stmt_costs_cached += cost_cache->hits();
    }
    return result;
  }

  // 4. Index merging over the selected pool.
  const std::vector<IndexDef> merged = generator.MergeCandidates(selected);
  if (!merged.empty()) {
    t0 = Clock::now();
    const std::map<std::string, PhysicalIndexEstimate> merged_sizes =
        EstimateSizes(merged, &result);
    result.estimation_ms += millis_since(t0);
    // A cancel inside the merged batch leaves merged_sizes short; merged
    // candidates are only admitted when every one of them was sized.
    if (!CancelRequested()) {
      for (const IndexDef& def : merged) selected.push_back(def);
      for (const auto& [sig, est] : merged_sizes) sizes[sig] = est;
    }
  }
  result.num_candidates = selected.size();
  if (options_.trace) {
    for (const IndexDef& def : selected) {
      std::fprintf(stderr, "[pool] %s ~%.0fKB\n", def.ToString().c_str(),
                   sizes.at(def.Signature()).bytes / 1024.0);
    }
  }
  ReportProgress("merging");
  if (cancelled()) {
    if (cost_cache != nullptr) {
      result.stmt_costs_computed += cost_cache->misses();
      result.stmt_costs_cached += cost_cache->hits();
    }
    return result;
  }

  // 5. Enumeration. A cancel inside Enumerate still falls through here, so
  // a cancelled result carries real initial/final costs for its partial
  // configuration.
  t0 = Clock::now();
  const Configuration empty;
  result.initial_cost = WorkloadCost(workload, empty, cost_cache.get(), &result);
  result.config = Enumerate(workload, selected, sizes, budget_bytes,
                            cost_cache.get(), &result);
  result.final_cost =
      WorkloadCost(workload, result.config, cost_cache.get(), &result);
  result.charged_bytes = ChargedBytes(result.config);
  result.enumeration_ms += millis_since(t0);
  ReportProgress("enumeration");
  if (cost_cache != nullptr) {
    result.stmt_costs_computed += cost_cache->misses();
    result.stmt_costs_cached += cost_cache->hits();
  }
  return result;
}

AdvisorResult Advisor::TuneStagedBaseline(const Workload& workload,
                                          double budget_bytes,
                                          CompressionKind kind) {
  // Stage 1: classic tuning without compression. The stage-1 advisor
  // shares this advisor's SizeEstimator, so its samples (and, when
  // options_.size_options.cache is set, its cross-round EstimationCache)
  // are reused by the stage-2 re-estimation instead of re-drawn.
  AdvisorOptions staged_options = options_;
  staged_options.enable_compression = false;
  Advisor stage1(*db_, *optimizer_, sizes_, mvs_, staged_options);
  AdvisorResult result = stage1.Tune(workload, budget_bytes);
  if (result.cancelled || CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }

  // Stage 2: compress every chosen index the codecs can store, re-estimating
  // sizes (one batch across the estimation pool) and re-costing the workload
  // with the per-statement costings fanned across the enumeration pool.
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  std::vector<IndexDef> compressed;
  for (const PhysicalIndexEstimate& idx : result.config.indexes()) {
    const Schema& schema = mvs_ != nullptr
                               ? mvs_->ObjectSchema(idx.def.object)
                               : db_->table(idx.def.object).schema();
    compressed.push_back(idx.def.CompressionFits(schema)
                             ? idx.def.WithCompression(kind)
                             : idx.def);
  }
  const std::map<std::string, PhysicalIndexEstimate> sizes =
      EstimateSizes(compressed, &result);
  result.estimation_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  // A cancel anywhere in stage 2 (mid-estimation or mid-re-cost) keeps the
  // coherent stage-1 design: `sizes` may be short and a pooled sum that
  // skipped statements is meaningless, so result.config/final_cost are only
  // overwritten once stage 2 finished clean.
  if (CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }
  Configuration config;
  for (const IndexDef& def : compressed) {
    config.Add(sizes.at(def.Signature()));
  }
  t0 = Clock::now();
  const double final_cost = PooledWorkloadCost(workload, config, &result);
  result.enumeration_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }
  result.config = std::move(config);
  result.final_cost = final_cost;
  result.charged_bytes = ChargedBytes(result.config);
  ReportProgress("staged-recompress");
  return result;
}

}  // namespace capd
