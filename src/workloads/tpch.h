// TPC-H-like dataset and workload generator (scaled to laptop-sized row
// counts; deterministic under a seed). Column names follow TPC-H so the
// 22 analytic query templates read naturally; value distributions carry a
// Zipf skew knob (the paper's Z=0/1/3 variants, Appendix C).
#ifndef CAPD_WORKLOADS_TPCH_H_
#define CAPD_WORKLOADS_TPCH_H_

#include <cstdint>

#include "catalog/database.h"
#include "query/query.h"

namespace capd {
namespace tpch {

struct Options {
  uint64_t lineitem_rows = 12000;
  double skew_z = 0.0;  // Zipf theta for FK/value choices (0 = uniform)
  uint64_t seed = 20110829;  // VLDB'11 week
  uint64_t bulk_rows = 1500;  // rows per bulk-load statement
};

// Populates `db` with lineitem/orders/customer/part/supplier/nation and
// declares the FK edges.
void Build(Database* db, const Options& options);

// The 22 analytic queries + 2 bulk loads (weights 1.0). Use
// Workload::WithInsertWeight to derive SELECT/INSERT intensive variants.
Workload MakeWorkload(const Database& db, const Options& options);

}  // namespace tpch
}  // namespace capd

#endif  // CAPD_WORKLOADS_TPCH_H_
