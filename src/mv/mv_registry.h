// MVRegistry: the glue that makes materialized views first-class citizens
// of the size-estimation framework and the what-if optimizer.
//   - SampleSource: MV samples are cut from join synopses (Appendix B.2)
//     and aggregated with the hidden COUNT(*) column (B.3); base tables
//     fall through to the shared SampleManager.
//   - FullTuples(mv): the CreateMVSample algorithm — frequency stats from
//     the count column fed to the Adaptive Estimator.
//   - MVMatcher: decides whether an index on an MV can answer a query.
#ifndef CAPD_MV_MV_REGISTRY_H_
#define CAPD_MV_MV_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "estimator/sample_cf.h"
#include "mv/mv_def.h"
#include "optimizer/what_if.h"

namespace capd {

// Result of the Appendix B.3 tuple-count estimation, with the baselines the
// paper compares in Table 1.
struct MVTupleEstimates {
  double adaptive = 0.0;    // AE (ours)
  double multiply = 0.0;    // sample distinct / sampling fraction
  double optimizer = 0.0;   // per-column independence
  uint64_t sample_groups = 0;
  uint64_t sample_rows = 0;
};

class MVRegistry : public SampleSource, public MVMatcher {
 public:
  MVRegistry(const Database& db, SampleManager* samples)
      : db_(&db), samples_(samples), table_source_(db, samples) {}

  void Register(MVDef def);
  const MVDef* Find(const std::string& name) const;
  bool IsMV(const std::string& object) const { return Find(object) != nullptr; }
  std::vector<const MVDef*> All() const;

  // --- SampleSource ---
  const Table& Sample(const std::string& object, double f) override;
  // Base tables: the SampleManager's pooled draw. An MV sample is cut from
  // its synopsis by the first Sample call.
  void DrawSample(const std::string& object, double f,
                  ThreadPool* pool) override;
  // Base tables: the SampleManager's size-only count. MVs: the MV sample's
  // size is known only after aggregation, so it is drawn.
  uint64_t SampleRows(const std::string& object, double f) override;
  double FullTuples(const std::string& object) override;
  const Schema& ObjectSchema(const std::string& object) override;

  // Full Appendix B.3 estimation detail for one MV.
  MVTupleEstimates EstimateTuples(const MVDef& def, double f);

  // --- MVMatcher ---
  std::optional<MVAccess> Match(const IndexDef& idx,
                                const SelectQuery& query) const override;
  std::optional<std::string> FactTableOf(
      const std::string& object) const override {
    const MVDef* def = Find(object);
    if (def == nullptr) return std::nullopt;
    return def->fact_table;
  }

 private:
  // Join synopsis for a fact table (cached per fraction).
  const Table& Synopsis(const std::string& fact, double f);
  // Requires mu_ held.
  const Table& SynopsisLocked(const std::string& fact, double f);

  const Database* db_;
  SampleManager* samples_;
  TableSampleSource table_source_;
  std::map<std::string, MVDef> defs_;    // mutated only by Register (setup)
  std::map<std::string, Schema> schemas_;  // mv name; Register-time only
  // Caches below are filled lazily, possibly from pool workers during
  // parallel estimation: mu_ guards them. Synopses are seeded per (fact
  // table, f) and MV samples aggregate them, so contents are independent
  // of creation order.
  mutable std::mutex mu_;
  // Keyed by (fact table, bits of f) and (mv name, bits of f).
  std::map<std::pair<std::string, uint64_t>, std::unique_ptr<Table>>
      synopses_;
  std::map<std::pair<std::string, uint64_t>, std::unique_ptr<Table>>
      mv_samples_;
  std::map<std::string, double> tuple_estimates_;  // mv name
  uint64_t synopsis_seed_ = 0x5eed;
};

}  // namespace capd

#endif  // CAPD_MV_MV_REGISTRY_H_
