#include "estimator/deduction.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "stats/distinct_estimator.h"

namespace capd {

double DeductionEngine::EstimateDistinct(
    const std::string& object, const std::vector<std::string>& cols) const {
  std::ostringstream key;
  key << object << "|";
  for (const std::string& c : cols) key << c << ",";
  const auto it = distinct_cache_.find(key.str());
  if (it != distinct_cache_.end()) return it->second;

  const Table& sample = source_->Sample(object, f_);
  std::vector<size_t> positions;
  positions.reserve(cols.size());
  for (const std::string& c : cols) {
    positions.push_back(sample.schema().ColumnIndex(c));
  }
  std::map<std::string, uint64_t> counts;
  for (const Row& row : sample.rows()) {
    std::string combo;
    for (size_t p : positions) {
      combo.append(row[p].ToString());
      combo.push_back('\x1f');
    }
    ++counts[combo];
  }
  std::vector<uint64_t> class_counts;
  class_counts.reserve(counts.size());
  for (const auto& [v, c] : counts) class_counts.push_back(c);
  const FrequencyStats freq = BuildFrequencyStats(class_counts);
  const uint64_t d = counts.size();
  const uint64_t r = sample.num_rows();
  const uint64_t n =
      static_cast<uint64_t>(std::max(1.0, source_->FullTuples(object)));
  const double est = std::max(1.0, AdaptiveEstimate(freq, d, r, n));
  distinct_cache_[key.str()] = est;
  return est;
}

double DeductionEngine::TuplesPerPage(const IndexDef& idx) const {
  const Table& sample = source_->Sample(idx.object, f_);
  const Schema stored = idx.StoredSchema(sample.schema());
  const double row_bytes = stored.RowWidth() + kRowOverhead;
  return std::max(1.0, std::floor(kPageCapacity / row_bytes));
}

double DeductionEngine::FragmentationF(const IndexDef& idx,
                                       const std::string& column,
                                       double tuples) const {
  const Table& sample = source_->Sample(idx.object, f_);
  const std::vector<std::string> ordered = idx.StoredColumns(sample.schema());
  // Columns preceding `column` in this index's sort order, plus the column.
  std::vector<std::string> prefix;
  for (const std::string& c : ordered) {
    prefix.push_back(c);
    if (c == column) break;
  }
  CAPD_CHECK(!prefix.empty() && prefix.back() == column)
      << "column " << column << " not stored in " << idx.ToString();

  const double T = TuplesPerPage(idx);
  // Average run length of `column` in this index: N / |prefix ∪ column|
  // (the paper's L(I_X, Y) via cardinality statistics). Only key columns
  // actually order the index; non-key trailing columns inherit the full
  // key's fragmentation, which the prefix formulation captures because the
  // keys precede them in StoredColumns order.
  const double combo = EstimateDistinct(idx.object, prefix);
  const double L = std::max(1.0, tuples / std::max(1.0, combo));

  double dv;
  if (L > 1.0) {
    dv = T / L;  // runs per page
  } else {
    const double y = EstimateDistinct(idx.object, {column});
    dv = y * (1.0 - std::pow(1.0 - 1.0 / y, T));
  }
  dv = std::min(std::max(dv, 1.0), T);
  return (T - dv) / T;
}

double DeductionEngine::DeduceColExt(const IndexDef& target,
                                     double target_uncompressed_bytes,
                                     double target_tuples,
                                     const std::vector<KnownSize>& children) const {
  CAPD_CHECK(!children.empty());
  const Table& sample = source_->Sample(target.object, f_);
  const Schema& base = sample.schema();
  const bool ord_dep = IsOrderDependent(target.compression);

  double total_reduction = 0.0;
  for (const KnownSize& child : children) {
    // Scale the child's absolute reduction to the target's tuple count
    // (identical filters mean identical counts; the scale guards drift
    // between estimates).
    const double scale =
        child.tuples > 0 ? target_tuples / child.tuples : 1.0;
    double r = (child.uncompressed_bytes - child.compressed_bytes) * scale;
    if (r < 0) r = 0;

    if (ord_dep) {
      // Only the dictionary/run share of the reduction fragments with
      // order; the NS share is order independent and carries over intact
      // ("the space saving of compression is linear to the number of
      // values replaced by the dictionary", Section 4.2).
      double r_ns = 0.0;
      if (child.ns_bytes > 0.0) {
        r_ns = std::max(0.0, (child.uncompressed_bytes - child.ns_bytes) * scale);
        r_ns = std::min(r_ns, r);
      }
      double r_dict = r - r_ns;
      // Rescale the dictionary share by the width-weighted mean of
      // per-column F ratios: the child saw each column's duplicates
      // contiguous; in the target the column may be fragmented by
      // preceding columns.
      double num = 0.0;
      double den = 0.0;
      for (const std::string& col : child.def.StoredColumns(base)) {
        const double w = base.column(base.ColumnIndex(col)).width;
        num += w * FragmentationF(target, col, target_tuples);
        den += w * FragmentationF(child.def, col, child.tuples > 0
                                                      ? child.tuples
                                                      : target_tuples);
      }
      if (den > 1e-9) {
        r_dict *= num / den;
      } else {
        r_dict = 0.0;  // child had nothing order-dependent to save
      }
      r = r_ns + r_dict;
    }
    total_reduction += r;
  }

  // Row locators are high-entropy page:slot pointers (see index_builder),
  // so each child's locator contributes ~zero reduction and no locator
  // correction is needed. The per-row slot overhead is different: every
  // compressed format drops the kRowOverhead slot bytes, so each child's R
  // includes that saving — it must be counted once, not once per child.
  if (children.size() > 1) {
    total_reduction -= static_cast<double>(children.size() - 1) *
                       static_cast<double>(kRowOverhead) * target_tuples;
  }

  // A compressed index never usefully exceeds its uncompressed size, and we
  // floor at one byte per tuple plus page framing.
  const double floor_bytes =
      std::max(static_cast<double>(kPageSize), target_tuples * 1.0);
  return std::max(floor_bytes,
                  std::min(target_uncompressed_bytes,
                           target_uncompressed_bytes - total_reduction));
}

}  // namespace capd
