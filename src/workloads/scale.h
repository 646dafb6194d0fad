// The "scale" workload: an events/telemetry star schema whose fact table is
// *generated* (BlockSource-backed Table) instead of resident, so the data
// axis can be swept to 10^7-10^8 rows without ever holding the table in
// memory. This is the workload bench_scale_sweep drives to show
// estimation cost stays sublinear in table size.
#ifndef CAPD_WORKLOADS_SCALE_H_
#define CAPD_WORKLOADS_SCALE_H_

#include <cstdint>

#include "catalog/database.h"
#include "query/query.h"

namespace capd {
namespace scale {

struct Options {
  // Fact ("events") rows. Any value works; 10^7-10^8 is the intended range.
  uint64_t fact_rows = 100000;
  uint64_t seed = 20110829;
  uint64_t bulk_rows = 5000;
};

// Builds the resident `devices` dimension plus the generated `events`
// fact table. The fact table costs O(block) memory regardless of fact_rows.
void Build(Database* db, const Options& options);

// 8 analytic queries + 1 bulk load over the star schema.
Workload MakeWorkload(const Database& db, const Options& options);

// Fact-table schema geometry, exposed for tests.
uint64_t NumDevices(uint64_t fact_rows);
uint64_t SensorDomain(uint64_t fact_rows);

}  // namespace scale
}  // namespace capd

#endif  // CAPD_WORKLOADS_SCALE_H_
