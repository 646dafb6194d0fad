// Preset builders live out of line: GCC 12's -O3 inliner raises a spurious
// -Wmaybe-uninitialized on the initializer-list-backed vector member when
// these are header-inline and a preset temporary is copied at a call site.
#include "advisor/advisor_options.h"

namespace capd {

AdvisorOptions AdvisorOptions::DTA() {
  AdvisorOptions o;
  o.compression_variants.clear();
  o.selection = CandidateSelectionMode::kTopK;
  o.backtracking = false;
  return o;
}

AdvisorOptions AdvisorOptions::DTAcNone() {
  AdvisorOptions o;
  o.selection = CandidateSelectionMode::kTopK;
  o.backtracking = false;
  return o;
}

AdvisorOptions AdvisorOptions::DTAcSkyline() {
  AdvisorOptions o;
  o.selection = CandidateSelectionMode::kSkyline;
  o.backtracking = false;
  return o;
}

AdvisorOptions AdvisorOptions::DTAcBacktrack() {
  AdvisorOptions o;
  o.selection = CandidateSelectionMode::kTopK;
  o.backtracking = true;
  return o;
}

AdvisorOptions AdvisorOptions::DTAcBoth() {
  AdvisorOptions o;
  o.selection = CandidateSelectionMode::kSkyline;
  o.backtracking = true;
  return o;
}

AdvisorOptions AdvisorOptions::DTAcBitmap() {
  AdvisorOptions o = DTAcBoth();
  o.compression_variants = {CompressionKind::kRow, CompressionKind::kPage,
                            CompressionKind::kBitmap};
  o.size_options.enable_sort_order_deduction = true;
  return o;
}

}  // namespace capd
