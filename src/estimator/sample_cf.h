// SampleCF (Section 2.2 / [11]) with the Section 4.1 extension: one shared
// uniform sample per table (via SampleManager), reused for every index on
// that table; filtered samples for partial indexes; MV samples supplied by
// a pluggable SampleSource (implemented over join synopses in src/mv).
// Fraction probes (PredictCostPages) are size-only: pricing a candidate f
// needs the sample's row count, not its rows, so only the f the plan
// finally runs at is drawn.
#ifndef CAPD_ESTIMATOR_SAMPLE_CF_H_
#define CAPD_ESTIMATOR_SAMPLE_CF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "index/index_builder.h"
#include "stats/sampler.h"

namespace capd {

// Resolves the sample (and full-size scaling info) for a named object.
// Base tables are served from the SampleManager; MVs from synopsis-derived
// MV samples (src/mv).
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  // The sample table for `object` at sampling fraction f.
  virtual const Table& Sample(const std::string& object, double f) = 0;
  // Draws the sample Sample(object, f) returns, if it is not drawn yet,
  // filling the base table's blocks across `pool`. The estimation graph
  // calls this on its calling thread before the SampleCF leaves start: a
  // draw a leaf starts runs on a pool worker, where ParallelFor runs
  // inline. Sources without a pooled draw leave it to the first Sample.
  virtual void DrawSample(const std::string& /*object*/, double /*f*/,
                          ThreadPool* /*pool*/) {}
  // Sample(object, f).num_rows(). The fraction search prices every
  // candidate f but reads only the chosen one's rows, so its probes are
  // size-only; sources that know the count without drawing override this.
  virtual uint64_t SampleRows(const std::string& object, double f) {
    return Sample(object, f).num_rows();
  }
  // Estimated number of tuples in the full object (for MVs this is the
  // Adaptive-Estimator prediction, Appendix B.3).
  virtual double FullTuples(const std::string& object) = 0;
  // Schema of the object (MVs may exist only as samples, not in the
  // catalog, so schema resolution goes through the source).
  virtual const Schema& ObjectSchema(const std::string& object) = 0;
};

// SampleSource over base tables.
class TableSampleSource : public SampleSource {
 public:
  TableSampleSource(const Database& db, SampleManager* samples)
      : db_(&db), samples_(samples) {}

  const Table& Sample(const std::string& object, double f) override {
    return samples_->GetSample(db_->table(object), f);
  }
  void DrawSample(const std::string& object, double f,
                  ThreadPool* pool) override {
    samples_->GetSample(db_->table(object), f, pool);
  }
  uint64_t SampleRows(const std::string& object, double f) override {
    return samples_->SampleRows(db_->table(object), f);
  }
  double FullTuples(const std::string& object) override {
    return static_cast<double>(db_->table(object).num_rows());
  }
  const Schema& ObjectSchema(const std::string& object) override {
    return db_->table(object).schema();
  }

 private:
  const Database* db_;
  SampleManager* samples_;
};

struct SampleCfResult {
  double cf = 1.0;           // compressed/uncompressed size ratio on sample
  double est_bytes = 0.0;    // estimated full compressed size
  double est_tuples = 0.0;   // estimated full entry count
  double est_uncompressed_bytes = 0.0;
  // Estimated full size under plain null suppression. For ORD-DEP methods
  // this isolates the order-independent share of the reduction, which the
  // ORD-DEP deduction must NOT rescale by the fragmentation ratio.
  double est_ns_bytes = 0.0;
  // The paper's estimation-cost metric: uncompressed data pages of the
  // index built on the sample (Section 5.1).
  double cost_pages = 0.0;
};

class SampleCfEstimator {
 public:
  SampleCfEstimator(const Database& db, SampleSource* source)
      : db_(&db), source_(source) {}

  // Runs SampleCF for `def` at sampling fraction f: builds the index (and
  // its uncompressed twin) on the object's sample and scales up.
  SampleCfResult Estimate(const IndexDef& def, double f);

  // SampleCF for several compression variants of ONE structure (all defs
  // must share StructureSignature()): the sorted sample is rendered into
  // one FlatPage, and the uncompressed reference pack and the
  // null-suppression pack are computed once and shared, so a group of N
  // variants costs one materialize + one render + one plain pack + N
  // compressed packs instead of N of each. Results are bit-identical to
  // calling Estimate() per def. Output in input order.
  std::vector<SampleCfResult> EstimateGroup(const std::vector<IndexDef>& defs,
                                            double f);

  // Executor of DeductionType::kSortOrder: a sibling sort order of an
  // already-sampled structure re-packs the same (cached) sample under its
  // own key order — bit-for-bit identical to a fresh Estimate(), but with
  // cost_pages forced to 0 because the donor's build paid the sample cost.
  SampleCfResult EstimateSortOrderDeduced(const IndexDef& def, double f);

  // Deterministic uncompressed full size (no sampling needed: fixed row
  // width). `tuples` defaults to the full object row count adjusted by the
  // partial-index filter measured on the sample.
  double UncompressedFullBytes(const IndexDef& def, double tuples) const;
  double EstimateFullTuples(const IndexDef& def, double f);

  // Cost (in pages) that Estimate() would incur, without running it;
  // `row_bytes` is RowBytes(def), computed once by callers that price a
  // def at several fractions.
  double PredictCostPages(const IndexDef& def, double f, double row_bytes);

  // Bytes of one uncompressed stored row of `def`: fixed part plus slot
  // overhead.
  double RowBytes(const IndexDef& def) const;

 private:
  const Database* db_;
  SampleSource* source_;
};

}  // namespace capd

#endif  // CAPD_ESTIMATOR_SAMPLE_CF_H_
