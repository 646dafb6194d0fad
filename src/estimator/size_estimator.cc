#include "estimator/size_estimator.h"

#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"

namespace capd {

EstimationBatch SizeEstimator::EstimateAll(
    const std::vector<IndexDef>& targets) {
  if (targets.empty()) return EstimationBatch();
  EstimationCache* cache = options_.cache.get();
  // A batch that starts cancelled returns what Plan returns: nothing.
  if (cache == nullptr || Cancelled()) return Plan(targets);
  std::string key = BatchKey(targets);
  if (std::optional<EstimationBatch> hit = cache->LookupBatch(key)) {
    return std::move(*hit);
  }
  EstimationBatch result = Plan(targets);
  // A cancelled batch may be partial; it is never stored.
  if (!Cancelled()) cache->InsertBatch(std::move(key), result);
  return result;
}

std::string SizeEstimator::BatchKey(
    const std::vector<IndexDef>& targets) const {
  std::string key;
  auto add_bits = [&key](double v) {
    const uint64_t bits = FractionBits(v);
    key.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
  };
  // Length-prefixed, so consecutive strings never run together.
  auto add_string = [&key](const std::string& s) {
    key.append(std::to_string(s.size())).append(":").append(s);
  };
  add_bits(options_.e);
  add_bits(options_.q);
  key.append(std::to_string(options_.fractions.size())).append(":");
  for (double f : options_.fractions) add_bits(f);
  key.push_back(options_.use_deduction ? '1' : '0');
  key.push_back(options_.enable_sort_order_deduction ? '1' : '0');
  // The coefficients are plain doubles, so their bytes are their bits.
  using Coefficients = ErrorModel::Coefficients;
  static_assert(std::is_trivially_copyable_v<Coefficients> &&
                    sizeof(Coefficients) % sizeof(double) == 0,
                "the batch key reads ErrorModel::Coefficients as doubles");
  const Coefficients& c = model_.coefficients();
  key.append(reinterpret_cast<const char*>(&c), sizeof(c));
  for (const IndexDef& t : targets) {
    add_string(t.Signature());
    add_string(source_->ObjectIdentity(t.object));
  }
  return key;
}

EstimationBatch SizeEstimator::Plan(const std::vector<IndexDef>& targets) {
  EstimationBatch result;
  EstimationGraph graph(*db_, source_, model_);
  // Must precede AddTargets: deduction candidates are generated there.
  graph.set_enable_sort_order(options_.enable_sort_order_deduction);
  graph.AddTargets(targets);
  graph.set_cancel(options_.cancel.get());

  // Runs the assigned plan at f. Its SampleCF leaves go through the cache
  // at exactly (signature, object identity, f): the fraction search above
  // it ran as if the cache were cold.
  auto execute_plan = [&](double f) {
    result.chosen_f = f;
    result.estimates = graph.Execute(f, options_.pool, options_.cache.get());
    result.num_sampled = graph.NumSampled();
    result.num_deduced = graph.NumDeduced();
  };

  if (!options_.use_deduction) {
    // Baseline mode: SampleCF every target at the smallest fraction whose
    // SampleCF error meets the constraint (or the largest fraction if none
    // does — matching the paper's "even All misses it" tolerance).
    double best_f = options_.fractions.back();
    for (double f : options_.fractions) {
      if (Cancelled()) return result;  // deadline binds between probes
      graph.SampleAllTargets(f, options_.pool);
      if (graph.AssignmentSatisfies(options_.e, options_.q, f)) {
        best_f = f;
        break;
      }
    }
    if (Cancelled()) return result;
    result.total_cost_pages = graph.SampleAllTargets(best_f, options_.pool);
    execute_plan(best_f);
    result.num_deduced = 0;
    return result;
  }

  // Try each sampling fraction; keep the valid plan with least cost
  // (Section 5.2: "we try several different values of f and pick the f for
  // which the greedy algorithm produces a solution with the smallest total
  // cost"). If even SampleCF-everywhere cannot meet the constraint at any
  // f, fall back to the largest (most accurate) fraction — the paper's
  // "unless even All does" tolerance.
  double best_cost = std::numeric_limits<double>::infinity();
  double best_f = options_.fractions.back();
  for (double f : options_.fractions) {
    // A cancelled batch returns early with whatever is in `result` so far
    // (nothing yet): partial plans are worthless, and the advisor discards
    // the batch anyway. The graph also polls inside its own probe and leaf
    // loops, so a deadline binds mid-fraction, not just between fractions.
    if (Cancelled()) return result;
    const double cost = graph.Greedy(f, options_.e, options_.q, options_.pool);
    if (!graph.AssignmentSatisfies(options_.e, options_.q, f)) continue;
    if (cost < best_cost) {
      best_cost = cost;
      best_f = f;
    }
  }
  if (Cancelled()) return result;
  // Re-run the winning plan (the graph holds the last run's states).
  result.total_cost_pages =
      graph.Greedy(best_f, options_.e, options_.q, options_.pool);
  execute_plan(best_f);
  return result;
}

SampleCfResult SizeEstimator::UncompressedSize(const IndexDef& def) {
  CAPD_CHECK(def.compression == CompressionKind::kNone);
  SampleCfEstimator sampler(*db_, source_);
  const double f = options_.fractions.front();
  SampleCfResult r;
  r.est_tuples = sampler.EstimateFullTuples(def, f);
  r.est_uncompressed_bytes = sampler.UncompressedFullBytes(def, r.est_tuples);
  r.est_bytes = r.est_uncompressed_bytes;
  r.cf = 1.0;
  r.cost_pages = 0.0;
  return r;
}

std::vector<SampleCfResult> SizeEstimator::UncompressedSizeAll(
    const std::vector<IndexDef>& defs) {
  return ParallelMap<SampleCfResult>(
      options_.pool, defs.size(), [&](size_t i) {
        // Skipped entries come back zeroed; a cancelled advisor run
        // discards the whole batch, so they are never read.
        if (Cancelled()) return SampleCfResult{};
        return UncompressedSize(defs[i]);
      });
}

}  // namespace capd
