// Candidate generation: the syntactically relevant indexes for each query
// (key permutations over predicate/group/join columns, covering variants,
// partial indexes, MV indexes), their compressed variants, and index
// merging across queries ([8], Figure 1's Merging box).
#ifndef CAPD_ADVISOR_CANDIDATES_H_
#define CAPD_ADVISOR_CANDIDATES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "advisor/advisor_options.h"
#include "mv/mv_registry.h"
#include "optimizer/what_if.h"
#include "query/query.h"

namespace capd {

// Leading-key distinct-count ceiling for BITMAP candidate variants: columns
// above it never get a bitmap candidate (per-value bitmaps would outnumber
// their payoff).
inline constexpr uint64_t kBitmapMaxLeadingDistinct = 64;

class CandidateGenerator {
 public:
  CandidateGenerator(const Database& db, const WhatIfOptimizer& optimizer,
                     MVRegistry* mvs, const AdvisorOptions& options)
      : db_(&db), optimizer_(&optimizer), mvs_(mvs), options_(&options) {}

  // Structure candidates (compression == kNone) relevant to one query.
  // MV candidates are registered into the MVRegistry as a side effect and
  // their indexes returned alongside table indexes.
  std::vector<IndexDef> GenerateForQuery(const SelectQuery& q,
                                         const std::string& query_id);

  // All candidates for the workload, deduplicated, with compressed variants
  // appended when compression is enabled.
  std::vector<IndexDef> GenerateForWorkload(const Workload& workload);

  // Index merging: pairwise merges of same-table candidates sharing a
  // leading key column; returns only new structures.
  std::vector<IndexDef> MergeCandidates(const std::vector<IndexDef>& selected);

  // Appends the enabled compression variants of `def`. The kBitmap variant
  // is gated by BitmapEligible (low-distinct leading key on a real table).
  // A structure the codecs cannot store (IndexDef::CompressionFits) gets
  // no compressed variants: it stays uncompressed.
  void AddVariants(const IndexDef& def, std::vector<IndexDef>* out) const;

 private:
  bool BitmapEligible(const IndexDef& def) const;
  void GenerateForTable(const SelectQuery& q, const std::string& table,
                        std::vector<IndexDef>* out) const;
  std::optional<MVDef> MVCandidate(const SelectQuery& q,
                                   const std::string& query_id) const;

  const Database* db_;
  const WhatIfOptimizer* optimizer_;
  MVRegistry* mvs_;
  const AdvisorOptions* options_;
};

}  // namespace capd

#endif  // CAPD_ADVISOR_CANDIDATES_H_
