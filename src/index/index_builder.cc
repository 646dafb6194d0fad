#include "index/index_builder.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"
#include "storage/encoding.h"

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

FlatPage IndexBuilder::MaterializePage(const IndexDef& def) const {
  const Schema& base = table_->schema();
  const Schema stored = def.StoredSchema(base);
  // Base positions of the stored columns, the locator excepted.
  std::vector<size_t> positions;
  for (const std::string& name : def.StoredColumns(base)) {
    positions.push_back(base.ColumnIndex(name));
  }
  const size_t num_keys = def.key_columns.size();
  const size_t filter_column =
      def.filter.has_value() ? base.ColumnIndex(def.filter->column) : 0;

  // One scan: each kept row's encoded cells go to per-column buffers in
  // scan order, and only its key Values are kept for the sort. Buffers are
  // sized for the first block (all of a small sample), never O(table).
  std::vector<std::string> cells(stored.num_columns());
  std::vector<Value> keys;  // row i's keys at [i * num_keys, (i+1) * num_keys)
  uint64_t rows = 0;
  table_->ScanBlocks([&](uint64_t first_row, const ColumnBlock& block) {
    if (first_row == 0) {
      for (size_t c = 0; c < cells.size(); ++c) {
        cells[c].reserve(block.num_rows() * stored.column(c).width);
      }
      keys.reserve(block.num_rows() * num_keys);
    }
    for (uint64_t r = 0; r < block.num_rows(); ++r) {
      if (def.filter.has_value() &&
          !def.filter->MatchesCell(block, filter_column, r)) {
        continue;
      }
      ++rows;
      CAPD_CHECK(max_materialize_rows_ == 0 || rows <= max_materialize_rows_)
          << "index materialization exceeded its memory budget of "
          << max_materialize_rows_ << " rows (table " << table_->name() << ")";
      for (size_t i = 0; i < positions.size(); ++i) {
        block.EncodeCell(positions[i], r, stored.column(i), &cells[i]);
      }
      // rowid stays the historical 1-based position so MixLocator emits the
      // exact locator stream the goldens pin.
      if (!def.clustered) {
        const int64_t rowid = static_cast<int64_t>(first_row + r) + 1;
        EncodeInt64Field(MixLocator(rowid), stored.column(positions.size()),
                         &cells.back());
      }
      for (size_t k = 0; k < num_keys; ++k) {
        keys.push_back(block.ValueAt(positions[k], r));
      }
    }
  });

  // std::sort makes the same comparisons and moves on the permutation as
  // on the rows themselves, so tied rows land where a row sort put them.
  CAPD_CHECK_LE(rows, uint64_t{UINT32_MAX}) << "table " << table_->name();
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < num_keys; ++k) {
      const int c = keys[a * num_keys + k].Compare(keys[b * num_keys + k]);
      if (c != 0) return c < 0;
    }
    return false;
  });

  FlatPage page(ColumnWidths(stored), rows);
  for (size_t c = 0; c < cells.size(); ++c) {
    const size_t width = stored.column(c).width;
    const std::string_view column = cells[c];
    for (size_t i = 0; i < rows; ++i) {
      page.SetField(i, c, column.substr(order[i] * width, width));
    }
  }
  return page;
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
