#include "stats/column_stats.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "compress/null_suppression.h"
#include "stats/distinct_estimator.h"

namespace capd {
namespace {

// Salt xor'd with the table-name hash to seed a generated table's draw.
// Fixed (not caller-supplied) so Database::stats() stays reproducible
// without threading a seed through the catalog.
constexpr uint64_t kStatsSeedSalt = 0x57A75u;

// GEE estimate of the full-data distinct count from per-class sample
// counts, clamped to [observed distinct, n]. With sample_rows = n, GEE's
// sqrt(n / r) is 1 and the estimate is the exact class count.
uint64_t ScaledDistinct(const std::map<std::string, uint64_t>& class_counts,
                        uint64_t sample_rows, uint64_t n) {
  if (class_counts.empty()) return 0;
  std::vector<uint64_t> counts;
  counts.reserve(class_counts.size());
  for (const auto& [cls, c] : class_counts) counts.push_back(c);
  const double est =
      GeeEstimate(BuildFrequencyStats(counts), sample_rows, n);
  const double clamped = std::clamp(
      est, static_cast<double>(counts.size()), static_cast<double>(n));
  return static_cast<uint64_t>(clamped + 0.5);
}

}  // namespace

Histogram Histogram::Build(std::vector<double> keys, size_t num_buckets) {
  Histogram h;
  h.total_ = keys.size();
  if (keys.empty()) return h;
  std::sort(keys.begin(), keys.end());
  h.min_ = keys.front();
  h.max_ = keys.back();
  num_buckets = std::min(num_buckets, keys.size());
  CAPD_CHECK_GT(num_buckets, 0u);
  h.boundaries_.push_back(keys.front());
  size_t start = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    size_t end = (keys.size() * (b + 1)) / num_buckets;
    if (end <= start) continue;
    h.boundaries_.push_back(keys[end - 1]);
    h.counts_.push_back(end - start);
    start = end;
  }
  return h;
}

double Histogram::SelectivityBetween(double lo, double hi) const {
  if (total_ == 0 || lo > hi) return 0.0;
  double covered = 0.0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    const double blo = boundaries_[b];
    const double bhi = boundaries_[b + 1];
    if (bhi < lo || blo > hi) continue;
    const double width = bhi - blo;
    double frac = 1.0;
    if (width > 0) {
      const double olo = std::max(lo, blo);
      const double ohi = std::min(hi, bhi);
      frac = (ohi - olo) / width;
    }
    covered += frac * static_cast<double>(counts_[b]);
  }
  return std::min(1.0, covered / static_cast<double>(total_));
}

double Histogram::SelectivityLe(double v) const {
  if (total_ == 0) return 0.0;
  return SelectivityBetween(min_, v);
}

double Histogram::SelectivityGe(double v) const {
  if (total_ == 0) return 0.0;
  return SelectivityBetween(v, max_);
}

TableStats TableStats::Compute(const Table& table) {
  const uint64_t n = table.num_rows();
  std::unique_ptr<Table> draw;
  if (table.generated()) {
    Random rng(kStatsSeedSalt ^ Fnv1a64(table.name()));
    const uint64_t k = std::min(n, kSampledStatsRows);
    draw = table.CollectRows(table.name(), rng.SampleIndices(n, k));
  }
  const Table& profiled = draw != nullptr ? *draw : table;
  const uint64_t r = profiled.num_rows();
  TableStats stats;
  stats.num_rows_ = n;
  const Schema& schema = table.schema();
  std::string enc;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const Column& col = schema.column(c);
    std::vector<double> keys;
    keys.reserve(r);
    std::map<std::string, uint64_t> class_counts;
    uint64_t zero_bytes = 0;
    profiled.ScanBlocks([&](uint64_t, const ColumnBlock& block) {
      for (uint64_t i = 0; i < block.num_rows(); ++i) {
        keys.push_back(block.NumericKey(c, i));
        enc.clear();
        block.EncodeCell(c, i, col, &enc);
        zero_bytes += CountLeadingZeros(enc);
        ++class_counts[enc];
      }
    });
    ColumnStats cs;
    cs.num_rows = n;
    cs.distinct = ScaledDistinct(class_counts, r, n);
    if (!keys.empty()) {
      cs.avg_leading_zero_bytes =
          static_cast<double>(zero_bytes) / static_cast<double>(keys.size());
    }
    cs.histogram =
        Histogram::Build(std::move(keys), Histogram::kDefaultBuckets);
    cs.min_key = cs.histogram.min();
    cs.max_key = cs.histogram.max();
    stats.columns_[col.name] = std::move(cs);
  }
  return stats;
}

const ColumnStats& TableStats::column(const std::string& name) const {
  const auto it = columns_.find(name);
  CAPD_CHECK(it != columns_.end()) << "no stats for column " << name;
  return it->second;
}

}  // namespace capd
