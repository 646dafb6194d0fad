#include "advisor/advisor.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace capd {

using Id = CandidateIds::Id;

double Advisor::ChargedBytes(const Configuration& config) const {
  double charged = 0.0;
  for (const PhysicalIndexEstimate& idx : config.indexes()) {
    charged = ChargedWith(charged, idx);
  }
  return charged;
}

double Advisor::ChargedBytes(const CandidateIds& ids,
                             const std::vector<Id>& config) const {
  double charged = 0.0;
  for (const Id id : config) charged = ChargedWith(charged, ids.estimate(id));
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
  if (options_.progress) options_.progress(phase);
}

double Advisor::WorkloadCost(const CandidateIds& ids,
                             const std::vector<Id>& config,
                             StatementCostCache* cost_cache,
                             AdvisorResult* result) const {
  const size_t statements = ids.workload().statements.size();
  if (result != nullptr) {
    result->what_if_calls += statements;
    // Cached costings are tallied from the cache's own counters at the end
    // of Tune; only uncached costing is known to run the optimizer here.
    if (cost_cache == nullptr) result->stmt_costs_computed += statements;
  }
  if (cost_cache != nullptr) return cost_cache->WorkloadCost(config);
  return ids.WorkloadCost(config);
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
  const EstimationBatch batch = sizes_->EstimateAll(compressed);
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

std::vector<Id> Advisor::SelectCandidates(
    const std::vector<IndexDef>& candidates, const CandidateIds& ids,
    StatementCostCache* cost_cache, AdvisorResult* result) const {
  const Workload& workload = ids.workload();
  std::vector<Id> selected;
  std::vector<char> kept(ids.size());  // by id

  // Each candidate's one-index configuration and its budget charge, built
  // once and shared by every query. Candidates with one signature share
  // one id, so each is kept once.
  std::vector<std::vector<Id>> singles(candidates.size());
  std::vector<double> charges(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    const Id id = ids.Find(candidates[c].Signature());
    singles[c] = {id};
    charges[c] = ChargedWith(0.0, ids.estimate(id));
  }
  auto keep = [&](size_t c) {
    const Id id = singles[c].front();
    if (!kept[id]) {
      kept[id] = 1;
      selected.push_back(id);
    }
  };

  auto stmt_cost = [&](size_t stmt_index, const std::vector<Id>& config) {
    return cost_cache != nullptr ? cost_cache->Cost(stmt_index, config)
                                 : ids.Cost(stmt_index, config);
  };
  const std::vector<Id> empty;
  struct Entry {
    size_t c;  // candidate position
    double cost;
    double bytes;
  };
  std::vector<Entry> entries;

  // Per SELECT query: its base (empty-configuration) cost, then one
  // single-index cost per candidate, which double as warm-up of the cost
  // cache for the first enumeration step.
  for (size_t si = 0; si < workload.statements.size(); ++si) {
    if (workload.statements[si].type != StatementType::kSelect) continue;
    // Tune discards the selection as soon as it sees the cancel flag.
    if (CancelRequested()) break;
    if (result != nullptr) {
      result->what_if_calls += candidates.size();
      if (cost_cache == nullptr) {
        result->stmt_costs_computed += 1 + candidates.size();
      }
    }
    entries.clear();
    const double base_cost = stmt_cost(si, empty);
    for (size_t c = 0; c < candidates.size(); ++c) {
      const double cost = stmt_cost(si, singles[c]);
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

std::vector<Id> Advisor::Enumerate(const std::vector<Id>& pool,
                                   const CandidateIds& ids,
                                   double budget_bytes,
                                   StatementCostCache* cost_cache,
                                   AdvisorResult* result) const {
  const size_t statements = ids.workload().statements.size();
  std::vector<Id> config;
  double current_cost = WorkloadCost(ids, config, cost_cache, result);

  // Cooperative cancel: the configuration is coherent between trials, so
  // stopping at any of these checks leaves the best design found so far.
  auto cancelled = [&]() {
    if (!CancelRequested()) return false;
    if (result != nullptr) result->cancelled = true;
    return true;
  };

  while (true) {
    if (cancelled()) return config;
    // Evaluate every addable candidate in pool order. Cached trials re-cost
    // only the statements their added entry is relevant to.
    StatementCostCache::Step step;
    if (cost_cache != nullptr) step = cost_cache->BeginStep(config);
    auto trial_cost = [&](Id added) {
      if (cost_cache == nullptr) {
        std::vector<Id> trial = config;
        trial.push_back(added);
        return WorkloadCost(ids, trial, nullptr, result);
      }
      if (result != nullptr) result->what_if_calls += statements;
      return cost_cache->WorkloadCostWith(step, added);
    };
    const double charged = ChargedBytes(ids, config);
    int best_fit = -1;       // best candidate that fits the budget
    double best_fit_score = 0.0;
    double best_fit_cost = current_cost;
    int best_any = -1;       // best candidate ignoring the budget
    double best_any_benefit = 0.0;

    for (size_t i = 0; i < pool.size(); ++i) {
      // An entry is addable unless a member shares its structure (the
      // entry itself, or a compressed variant: those compete and are never
      // useful together for our optimizer) or it is a second clustered
      // index.
      const PhysicalIndexEstimate& est = ids.estimate(pool[i]);
      const bool blocked =
          std::any_of(config.begin(), config.end(), [&](Id m) {
            const IndexDef& member = ids.estimate(m).def;
            return ids.structure(m) == ids.structure(pool[i]) ||
                   (est.def.clustered && member.clustered &&
                    member.object == est.def.object);
          });
      if (blocked) continue;
      if (cancelled()) return config;
      const double cost = trial_cost(pool[i]);
      const double benefit = current_cost - cost;
      if (benefit <= 1e-9) continue;
      const bool fits = ChargedWith(charged, est) <= budget_bytes;
      const double score =
          options_.enumeration == EnumerationMode::kDensityGreedy
              ? benefit / std::max(1.0, est.bytes)
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

    // Backtracking (Section 6.2): if the overall-best choice is oversized,
    // try to recover it by swapping one or more members for compressed
    // variants. Swaps are applied greedily until the configuration fits:
    // prefer a swap that fits immediately with the best workload cost,
    // otherwise the one freeing the most space (to converge).
    if (options_.backtracking && best_any >= 0 && best_any != best_fit &&
        ChargedWith(charged, ids.estimate(pool[best_any])) > budget_bytes) {
      std::vector<Id> recovered;  // cheapest in-budget swap, once found
      double recovered_cost = std::numeric_limits<double>::infinity();
      std::vector<Id> work = config;
      work.push_back(pool[best_any]);
      for (int round = 0; round < 8; ++round) {
        // Swaps are scanned in (member, replacement) order and the first
        // cheapest in-budget one wins. A swap erases the member and appends
        // its replacement: costs depend on member order.
        int reduce_member = -1, reduce_repl = -1;
        double reduce_amount = 0.0;
        for (int m = 0; m < static_cast<int>(work.size()); ++m) {
          const PhysicalIndexEstimate& member = ids.estimate(work[m]);
          for (int p = 0; p < static_cast<int>(pool.size()); ++p) {
            if (ids.structure(pool[p]) != ids.structure(work[m])) continue;
            if (pool[p] == work[m]) continue;
            const PhysicalIndexEstimate& repl_est = ids.estimate(pool[p]);
            if (repl_est.bytes >= member.bytes) continue;
            std::vector<Id> trial = work;
            trial.erase(trial.begin() + m);
            trial.push_back(pool[p]);
            if (ChargedBytes(ids, trial) <= budget_bytes) {
              if (cancelled()) return config;
              const double cost = WorkloadCost(ids, trial, cost_cache, result);
              if (cost < recovered_cost) {
                recovered_cost = cost;
                recovered = std::move(trial);
              }
            } else if (member.bytes - repl_est.bytes > reduce_amount) {
              reduce_amount = member.bytes - repl_est.bytes;
              reduce_member = m;
              reduce_repl = p;
            }
          }
        }
        // Stop at the first round with an in-budget swap, or when no
        // further swap frees space.
        if (!recovered.empty() || reduce_member < 0) break;
        work.erase(work.begin() + reduce_member);
        work.push_back(pool[reduce_repl]);
      }
      if (!recovered.empty() &&
          recovered_cost < std::min(best_fit_cost, current_cost)) {
        config = std::move(recovered);
        current_cost = recovered_cost;
        continue;
      }
    }

    if (best_fit < 0) return config;
    config.push_back(pool[best_fit]);
    current_cost = best_fit_cost;
  }
}

AdvisorResult Advisor::Tune(const Workload& workload, double budget_bytes) {
  AdvisorResult result;
  CandidateGenerator generator(*db_, *optimizer_, mvs_, options_);

  // Cancellation can land between any two phases; the partial result (best
  // configuration so far, flagged `cancelled`) is always coherent.
  auto cancelled = [&]() {
    if (!CancelRequested()) return false;
    result.cancelled = true;
    return true;
  };

  // 1. Syntactically relevant candidates + compressed variants.
  std::vector<IndexDef> candidates = generator.GenerateForWorkload(workload);
  ReportProgress("candidates");
  if (cancelled()) return result;

  // 2. Size estimation for every candidate (Section 5 framework).
  std::map<std::string, PhysicalIndexEstimate> sizes =
      EstimateSizes(candidates, &result);
  ReportProgress("estimation");
  if (cancelled()) return result;

  // Every sized candidate is interned once; the search names candidates by
  // id from here on. The per-statement what-if cost cache lives for the
  // whole run: nothing within one Tune invalidates a statement cost
  // (database and sizes are fixed), and the single-index costings of
  // candidate selection double as warm-up for the first enumeration step.
  // Both are freed before the enumeration phase is reported, so the phase
  // includes their teardown.
  {
    CandidateIds ids(*optimizer_, workload);
    for (const auto& [signature, est] : sizes) ids.Intern(signature, est);
    std::unique_ptr<StatementCostCache> cost_cache;
    if (options_.cost_cache) {
      cost_cache = std::make_unique<StatementCostCache>(ids);
    }
    // The cost cache's counters land in the result on every later exit.
    auto tally_cost_cache = [&]() {
      if (cost_cache == nullptr) return;
      result.stmt_costs_computed += cost_cache->misses();
      result.stmt_costs_cached += cost_cache->hits();
    };

    // 3. Per-query candidate selection (top-k or skyline).
    std::vector<Id> pool =
        SelectCandidates(candidates, ids, cost_cache.get(), &result);
    ReportProgress("selection");
    if (cancelled()) {
      tally_cost_cache();
      return result;
    }

    // 4. Index merging over the selected pool.
    std::vector<IndexDef> selected;
    for (const Id id : pool) selected.push_back(ids.estimate(id).def);
    const std::vector<IndexDef> merged = generator.MergeCandidates(selected);
    if (!merged.empty()) {
      const std::map<std::string, PhysicalIndexEstimate> merged_sizes =
          EstimateSizes(merged, &result);
      // A cancel inside the merged batch leaves merged_sizes short; merged
      // candidates are only admitted when every one of them was sized. A
      // merged signature sized before keeps its first estimate, which
      // selection already charged and costed, and so its id.
      if (!CancelRequested()) {
        for (const auto& [sig, est] : merged_sizes) {
          const auto it = sizes.emplace(sig, est).first;
          ids.Intern(it->first, it->second);
        }
        for (const IndexDef& def : merged) {
          pool.push_back(ids.Find(def.Signature()));
        }
      }
    }
    result.num_candidates = pool.size();
    ReportProgress("merging");
    if (cancelled()) {
      tally_cost_cache();
      return result;
    }

    // 5. Enumeration. A cancel inside Enumerate still falls through here, so
    // a cancelled result carries real initial/final costs for its partial
    // configuration.
    result.initial_cost = WorkloadCost(ids, {}, cost_cache.get(), &result);
    const std::vector<Id> config =
        Enumerate(pool, ids, budget_bytes, cost_cache.get(), &result);
    result.final_cost = WorkloadCost(ids, config, cost_cache.get(), &result);
    result.config = ids.ToConfiguration(config);
    result.charged_bytes = ChargedBytes(result.config);
    tally_cost_cache();
  }
  ReportProgress("enumeration");
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
  staged_options.compression_variants.clear();
  Advisor stage1(*db_, *optimizer_, sizes_, mvs_, staged_options);
  AdvisorResult result = stage1.Tune(workload, budget_bytes);
  if (result.cancelled || CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }

  // Stage 2: compress every chosen index the codecs can store, re-estimating
  // sizes (one batch across the estimation pool) and re-costing the one
  // compressed configuration.
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
  // A cancel during the re-estimation keeps the coherent stage-1 design:
  // `sizes` may be short. The re-costing below is exact whenever it runs.
  if (CancelRequested()) {
    result.cancelled = true;
    return result;  // stage-1 design, uncompressed
  }
  CandidateIds ids(*optimizer_, workload);
  std::vector<Id> config;
  for (const IndexDef& def : compressed) {
    const auto it = sizes.find(def.Signature());
    config.push_back(ids.Intern(it->first, it->second));
  }
  result.final_cost = WorkloadCost(ids, config, nullptr, &result);
  result.config = ids.ToConfiguration(config);
  result.charged_bytes = ChargedBytes(result.config);
  ReportProgress("staged-recompress");
  return result;
}

}  // namespace capd
