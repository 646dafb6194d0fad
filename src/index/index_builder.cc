#include "index/index_builder.h"

#include <algorithm>

#include "common/logging.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"

namespace capd {
namespace {

// Locator values are page:slot style pointers in a real engine — high
// entropy, incompressible, and (critically for SampleCF) with the same
// entropy in a sample as in the full index. A sequential id would compress
// better in small samples and bias every size estimate low.
int64_t MixLocator(int64_t rowid) {
  uint64_t x = static_cast<uint64_t>(rowid) * 0x9E3779B97F4A7C15ull;
  return static_cast<int64_t>(x >> 16);  // 48-bit positive value
}

}  // namespace

std::vector<Row> IndexBuilder::MaterializeRows(const IndexDef& def) const {
  const Schema& base = table_->schema();
  const std::vector<std::string> stored = def.StoredColumns(base);
  std::vector<size_t> positions;
  positions.reserve(stored.size());
  for (const std::string& name : stored) {
    positions.push_back(base.ColumnIndex(name));
  }

  std::vector<Row> rows;
  // Pre-size only when the table is already resident; for generated tables
  // the reservation would itself be the O(n) allocation we are avoiding.
  if (table_->materialized()) rows.reserve(table_->num_rows());
  table_->ScanRows([&](uint64_t global_idx, const Row& r) {
    // rowid stays the historical 1-based position so MixLocator emits the
    // exact locator stream the goldens pin.
    const int64_t rowid = static_cast<int64_t>(global_idx) + 1;
    if (def.filter.has_value() && !def.filter->Matches(r, base)) return;
    Row projected;
    projected.reserve(positions.size() + 1);
    for (size_t p : positions) projected.push_back(r[p]);
    if (!def.clustered) projected.push_back(Value::Int64(MixLocator(rowid)));
    rows.push_back(std::move(projected));
    CAPD_CHECK(max_materialize_rows_ == 0 ||
               rows.size() <= max_materialize_rows_)
        << "index materialization exceeded its memory budget of "
        << max_materialize_rows_ << " rows (table " << table_->name() << ")";
  });

  const size_t num_keys = def.key_columns.size();
  std::sort(rows.begin(), rows.end(), [num_keys](const Row& a, const Row& b) {
    for (size_t k = 0; k < num_keys; ++k) {
      const int c = a[k].Compare(b[k]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

FlatPage IndexBuilder::MaterializePage(const IndexDef& def) const {
  const std::vector<Row> rows = MaterializeRows(def);
  return FlatPage::FromRows(rows, def.StoredSchema(table_->schema()), 0,
                            rows.size());
}

IndexPhysical IndexBuilder::Build(const IndexDef& def) const {
  return Pack(def, MaterializePage(def));
}

IndexPhysical IndexBuilder::Pack(const IndexDef& def,
                                 const FlatPage& page) const {
  CAPD_CHECK(page.widths() ==
             ColumnWidths(def.StoredSchema(table_->schema())))
      << "page does not match the stored schema of " << def.ToString();
  std::unique_ptr<Codec> codec = MakeCodec(def.compression, page);
  IndexPhysical phys;
  phys.tuples = page.num_rows();
  const PackResult packed = PackPages(page, *codec);
  phys.data_pages = packed.pages;
  phys.payload_bytes = packed.payload_bytes;
  phys.overhead_bytes = codec->IndexOverheadBytes();
  return phys;
}

double IndexBuilder::TrueCompressionFraction(const IndexDef& def) const {
  const FlatPage page = MaterializePage(def);
  const IndexPhysical compressed = Pack(def, page);
  const IndexPhysical plain =
      Pack(def.WithCompression(CompressionKind::kNone), page);
  CAPD_CHECK_GT(plain.fine_bytes(), 0u);
  // Byte granularity: page counts quantize small indexes to CF = 1.
  return static_cast<double>(compressed.fine_bytes()) /
         static_cast<double>(plain.fine_bytes());
}

PackResult PackPages(const FlatPage& page, const Codec& codec) {
  PackResult result;
  const size_t n = page.num_rows();
  if (n == 0) {
    result.pages = 1;  // an index always has at least its root page
    return result;
  }
  // The codec fits one page at a time from the rendered rows through its
  // size-only kernels: no blob, no per-field strings.
  for (size_t begin = 0; begin < n;) {
    const PageFit fit = codec.FitRows(page, begin, kPageCapacity);
    result.payload_bytes += fit.bytes;
    // Only a single giant row can exceed a page; it spills across several.
    result.pages += (fit.bytes + kPageCapacity - 1) / kPageCapacity;
    begin += fit.rows;
  }
  return result;
}

}  // namespace capd
