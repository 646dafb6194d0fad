// The built-in tuning strategies, by name: the AdvisorEngine resolves
// TuningRequest::strategy here. The table is fixed at compile time:
//   "dta"            classic DTA, no compression
//   "dtac-topk"      DTAc, per-query top-k selection
//   "dtac-skyline"   DTAc, size/cost skyline selection
//   "dtac-backtrack" DTAc, top-k + Section 6.2 backtracking
//   "dtac-both"      DTAc, skyline + backtracking (the full tool)
//   "dtac-bitmap"    dtac-both + BITMAP variants and sort-order deduction
//   "staged:none"    naive staged baseline (Example 1/2), kind = NONE
//   "staged:row"     staged baseline, compress chosen indexes with ROW
//   "staged:page"    staged baseline, compress chosen indexes with PAGE
#ifndef CAPD_ENGINE_STRATEGY_REGISTRY_H_
#define CAPD_ENGINE_STRATEGY_REGISTRY_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"

namespace capd {

// One tuning strategy: a preset's AdvisorOptions (the engine overlays
// request knobs: threads, caches, cancellation) plus the run itself, either
// Advisor::Tune or the staged baseline with a fixed compression kind.
// Immutable, so one instance serves concurrent requests.
class Strategy {
 public:
  Strategy(std::string description, AdvisorOptions (*preset)(),
           std::optional<CompressionKind> staged_kind = std::nullopt)
      : description_(std::move(description)),
        preset_(preset),
        staged_kind_(staged_kind) {}

  const std::string& description() const { return description_; }
  AdvisorOptions MakeOptions() const { return preset_(); }
  // Executes the strategy on an advisor already wired with MakeOptions()
  // (plus engine overlays).
  AdvisorResult Run(Advisor* advisor, const Workload& workload,
                    double budget_bytes) const;

 private:
  std::string description_;
  AdvisorOptions (*preset_)();
  std::optional<CompressionKind> staged_kind_;
};

// Name -> Strategy for the built-ins, built on first access to Global().
class StrategyRegistry {
 public:
  static const StrategyRegistry& Global();

  // Null when unknown.
  const Strategy* Find(const std::string& name) const;

  std::vector<std::string> Names() const;  // sorted

  // "unknown strategy 'x' (known: a b c)" — the engine's error message.
  std::string UnknownStrategyMessage(const std::string& name) const;

 private:
  StrategyRegistry();

  std::map<std::string, Strategy> strategies_;
};

}  // namespace capd

#endif  // CAPD_ENGINE_STRATEGY_REGISTRY_H_
