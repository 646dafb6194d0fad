// Per-column statistics: distinct counts, min/max, and an equi-depth
// histogram over the column's numeric key. These are the "statistics
// typically maintained by the query optimizer for cardinality estimation"
// (Section 2.2) that both the what-if optimizer and the ORD-DEP deduction
// formulas consume.
#ifndef CAPD_STATS_COLUMN_STATS_H_
#define CAPD_STATS_COLUMN_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/table.h"

namespace capd {

// Equi-depth histogram over NumericKey values.
class Histogram {
 public:
  static constexpr size_t kDefaultBuckets = 64;

  Histogram() = default;

  // Builds from the (unsorted) values of one column.
  static Histogram Build(std::vector<double> keys, size_t num_buckets);

  // Estimated fraction of rows with key in [lo, hi] (inclusive).
  double SelectivityBetween(double lo, double hi) const;
  double SelectivityLe(double v) const;
  double SelectivityGe(double v) const;

  uint64_t total_rows() const { return total_; }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  // boundaries_[i]..boundaries_[i+1] holds counts_[i] rows.
  std::vector<double> boundaries_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct ColumnStats {
  uint64_t num_rows = 0;
  uint64_t distinct = 0;
  double min_key = 0.0;
  double max_key = 0.0;
  // Average number of bytes NS saves per field (leading zero bytes). Feeds
  // analytic size reasoning and tests.
  double avg_leading_zero_bytes = 0.0;
  Histogram histogram;
};

class TableStats {
 public:
  // Rows drawn to profile a generated table. Bounds the stats memory (and
  // the draw's resident set) regardless of table size.
  static constexpr uint64_t kSampledStatsRows = 16384;

  TableStats() = default;

  // Profiles every column in one loop over r of the table's n rows: all of
  // a resident table's (r = n), or a generated table's uniform draw of
  // kSampledStatsRows rows seeded by its name, freed on return, so a
  // 10^8-row table costs O(draw) memory. num_rows is n; distinct counts
  // are GEE-scaled from the r rows (exact at r = n); histograms and
  // leading-zero averages come from the r rows.
  static TableStats Compute(const Table& table);

  const ColumnStats& column(const std::string& name) const;
  uint64_t num_rows() const { return num_rows_; }

 private:
  uint64_t num_rows_ = 0;
  std::map<std::string, ColumnStats> columns_;
};

}  // namespace capd

#endif  // CAPD_STATS_COLUMN_STATS_H_
