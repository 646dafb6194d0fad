// Materializes an index over a table's rows and measures its exact physical
// size: rows are filtered (partial indexes), projected to the stored
// columns, sorted by key, rendered once into a FlatPage, and packed
// page-by-page under the chosen codec. Every compressed variant of one
// structure packs from the same rendered page. This is the ground truth
// that SampleCF and the deduction methods estimate.
#ifndef CAPD_INDEX_INDEX_BUILDER_H_
#define CAPD_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <vector>

#include "compress/codec.h"
#include "index/index_def.h"
#include "storage/table.h"

namespace capd {

struct IndexPhysical {
  uint64_t tuples = 0;
  uint64_t data_pages = 0;
  uint64_t payload_bytes = 0;   // sum of packed page blob sizes
  uint64_t overhead_bytes = 0;  // e.g. global dictionary storage

  uint64_t total_pages() const {
    return data_pages + (overhead_bytes + kPageSize - 1) / kPageSize;
  }
  uint64_t bytes() const { return total_pages() * kPageSize; }
  // Byte-granularity size: robust for tiny (sample-sized) indexes where
  // page counts quantize away the compression fraction.
  uint64_t fine_bytes() const { return payload_bytes + overhead_bytes; }
};

class IndexBuilder {
 public:
  explicit IndexBuilder(const Table& table) : table_(&table) {}

  // Memory budget: CHECK-fails if MaterializePage would retain more than
  // this many rows (0 = unlimited). The estimation path sets it to the
  // sample size, making "peak memory is O(sample)" an enforced invariant
  // rather than a hope.
  void set_max_materialize_rows(uint64_t budget) {
    max_materialize_rows_ = budget;
  }

  // Filter + project + sort, rendered under def.StoredSchema: the page
  // every compression variant of def's structure packs from. Streams the
  // table block-by-block, encodes each kept row's stored cells straight
  // from the typed columns and keeps only those bytes and the key Values,
  // never a second copy of the base table; only a partial index's filter
  // test builds a Row. Rows tied on the key keep the order a std::sort of
  // whole rows gives them.
  FlatPage MaterializePage(const IndexDef& def) const;

  // Full build: returns the measured physical size.
  IndexPhysical Build(const IndexDef& def) const;

  // Packs a rendered page of the index's rows under def's codec. The
  // page's widths must match def.StoredSchema (CHECKed). Avoids re-sorting
  // and re-rendering when measuring several compression variants of one
  // index.
  IndexPhysical Pack(const IndexDef& def, const FlatPage& page) const;

  // Exact compression fraction: size(compressed variant)/size(uncompressed).
  double TrueCompressionFraction(const IndexDef& def) const;

 private:
  const Table* table_;
  uint64_t max_materialize_rows_ = 0;
};

// Greedy page packing: fills each page with the rows Codec::FitRows picks —
// the longest run whose compressed blob fits kPageCapacity. Oversized
// single rows spill across ceil(size/capacity) pages.
struct PackResult {
  uint64_t pages = 0;
  uint64_t payload_bytes = 0;  // sum of per-page blob sizes
};
PackResult PackPages(const FlatPage& page, const Codec& codec);

}  // namespace capd

#endif  // CAPD_INDEX_INDEX_BUILDER_H_
