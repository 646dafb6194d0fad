// Deduction methods (Section 4.2): infer a compressed index's size from
// indexes whose sizes are already known, at zero sampling cost.
//   - ColSet (ORD-IND): same column set + same method => same size.
//   - ColExt (ORD-IND): reductions are per-column and order-insensitive, so
//     R(I_AB) = R(I_A) + R(I_B) and Size(Ic_AB) = Size(I_AB) - sum R.
//   - ColExt (ORD-DEP): trailing columns fragment — the reduction each
//     child contributes is rescaled by F(I,y) = (T - DV(I,y))/T, with the
//     average per-page distinct count DV derived from run lengths
//     L(I,y) = N / |prefix-of-y ∪ y| (cardinalities estimated from the
//     shared sample via the Adaptive Estimator).
// Two engineering details documented here because the paper glosses them:
// (1) every compressed format drops the per-row slot overhead, so each of
//     the a children's reductions includes that saving; DeduceColExt
//     subtracts it (a-1) times. Row locators are high-entropy page:slot
//     pointers that save ~nothing, so they need no correction. (2) multi-
//     column children scale by a width-weighted mean of per-column F ratios.
#ifndef CAPD_ESTIMATOR_DEDUCTION_H_
#define CAPD_ESTIMATOR_DEDUCTION_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "estimator/sample_cf.h"
#include "index/index_def.h"

namespace capd {

// A size fact about an index, produced by SampleCF, an earlier deduction,
// or the catalog (existing indexes).
struct KnownSize {
  IndexDef def;
  double compressed_bytes = 0.0;
  double uncompressed_bytes = 0.0;
  // Size under plain NS (order-independent). For ORD-DEP children this
  // splits the reduction into the NS share (kept as-is) and the
  // dictionary share (rescaled by fragmentation). Zero means unknown, in
  // which case the whole reduction is rescaled (conservative).
  double ns_bytes = 0.0;
  double tuples = 0.0;
};

class DeductionEngine {
 public:
  // `f` is the sampling fraction used for cardinality estimates.
  DeductionEngine(const Database& db, SampleSource* source, double f)
      : db_(&db), source_(source), f_(f) {}

  // ColExt: children must partition the target's stored key/include column
  // set (each child an index on the same object with the same compression
  // and filter). `target_uncompressed_bytes`/`target_tuples` come from the
  // deterministic uncompressed-size calculation.
  double DeduceColExt(const IndexDef& target, double target_uncompressed_bytes,
                      double target_tuples,
                      const std::vector<KnownSize>& children) const;

  // Estimated distinct count of a column combination in the full object,
  // from sample frequency statistics + Adaptive Estimator. Memoized.
  double EstimateDistinct(const std::string& object,
                          const std::vector<std::string>& cols) const;

 private:
  // F(I, y) for index I with ordered stored columns `ordered` over object
  // rows; T = uncompressed tuples/page of I.
  double FragmentationF(const IndexDef& idx, const std::string& column,
                        double tuples) const;
  double TuplesPerPage(const IndexDef& idx) const;

  const Database* db_;
  SampleSource* source_;
  double f_;
  mutable std::map<std::string, double> distinct_cache_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_DEDUCTION_H_
