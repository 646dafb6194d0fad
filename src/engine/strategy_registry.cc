#include "engine/strategy_registry.h"

#include <utility>

namespace capd {

AdvisorResult Strategy::Run(Advisor* advisor, const Workload& workload,
                            double budget_bytes) const {
  if (!staged_kind_) return advisor->Tune(workload, budget_bytes);
  return advisor->TuneStagedBaseline(workload, budget_bytes, *staged_kind_);
}

StrategyRegistry::StrategyRegistry() {
  auto add = [this](const char* name, Strategy strategy) {
    strategies_.emplace(name, std::move(strategy));
  };
  add("dta", Strategy("classic DTA: top-k selection, no compressed variants",
                      &AdvisorOptions::DTA));
  add("dtac-topk", Strategy("DTAc with per-query top-k candidate selection",
                            &AdvisorOptions::DTAcNone));
  add("dtac-skyline",
      Strategy("DTAc with size/cost skyline candidate selection (Section 6.1)",
               &AdvisorOptions::DTAcSkyline));
  add("dtac-backtrack",
      Strategy("DTAc with top-k selection + backtracking enumeration "
               "(Section 6.2)",
               &AdvisorOptions::DTAcBacktrack));
  add("dtac-both", Strategy("full DTAc: skyline selection + backtracking",
                            &AdvisorOptions::DTAcBoth));
  add("dtac-bitmap",
      Strategy("DTAc + succinct BITMAP variants (low-distinct leading keys) "
               "with sort-order size deduction",
               &AdvisorOptions::DTAcBitmap));
  // The naive staged baseline of Example 1/2: tune without compression,
  // then compress every chosen index with one kind. Base options mirror the
  // golden-report harness (DTAcNone) so "staged:page" reproduces the pinned
  // staged reports.
  const std::pair<const char*, CompressionKind> staged[] = {
      {"staged:none", CompressionKind::kNone},
      {"staged:row", CompressionKind::kRow},
      {"staged:page", CompressionKind::kPage}};
  for (const auto& [name, kind] : staged) {
    add(name, Strategy(std::string("staged baseline: tune uncompressed, then "
                                   "apply ") +
                           CompressionKindName(kind) + " to every chosen index",
                       &AdvisorOptions::DTAcNone, kind));
  }
}

const StrategyRegistry& StrategyRegistry::Global() {
  static const StrategyRegistry* const registry = new StrategyRegistry();
  return *registry;
}

const Strategy* StrategyRegistry::Find(const std::string& name) const {
  const auto it = strategies_.find(name);
  return it == strategies_.end() ? nullptr : &it->second;
}

std::vector<std::string> StrategyRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(strategies_.size());
  for (const auto& [name, strategy] : strategies_) names.push_back(name);
  return names;  // map iteration order is already sorted
}

std::string StrategyRegistry::UnknownStrategyMessage(
    const std::string& name) const {
  std::string message = "unknown strategy '" + name + "' (known:";
  for (const std::string& known : Names()) message += " " + known;
  message += ")";
  return message;
}

}  // namespace capd
