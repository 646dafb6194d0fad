// Join synopses (Appendix B.2, after Acharya et al. [2]): a uniform sample
// of a fact table joined with the FULL dimension tables along key/foreign-
// key edges, so every sampled fact row finds its matches. MV samples for
// FK-join views are cut from this synopsis.
#ifndef CAPD_STATS_JOIN_SYNOPSIS_H_
#define CAPD_STATS_JOIN_SYNOPSIS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/table.h"

namespace capd {

// A key/foreign-key edge: fact.fk_column references dim.key_column.
struct ForeignKey {
  std::string fact_table;
  std::string fk_column;
  std::string dim_table;
  std::string key_column;
};

// The one dimension join, shared by the synopsis and exact MV
// materialization: each fact row, in order, followed by the non-key
// columns of its match in every dims[d] (hashed on edges[d].key_column's
// ToString(), resident or generated), into a new resident table `name`.
// Rows whose foreign key dangles are dropped. Column names must be unique
// across the joined tables (CHECKed); the fact's FK column carries the key.
std::unique_ptr<Table> JoinDimensions(std::string name, const Table& fact,
                                      const std::vector<const Table*>& dims,
                                      const std::vector<ForeignKey>& edges);

// Builds the synopsis: samples the fact table at fraction f and joins the
// sample with the FULL dimension tables (every edge must leave `fact`).
std::unique_ptr<Table> BuildJoinSynopsis(
    const Table& fact, const std::vector<const Table*>& dims,
    const std::vector<ForeignKey>& edges, double f, Random* rng);

}  // namespace capd

#endif  // CAPD_STATS_JOIN_SYNOPSIS_H_
