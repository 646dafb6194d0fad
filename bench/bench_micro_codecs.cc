// Micro-benchmarks of the compression codecs. These are the stand-in for
// the whitepaper [13] measurements the paper calibrates the alpha/beta CPU
// constants from: per-tuple compression (alpha) and per-tuple-per-column
// decompression (beta) costs, with PAGE > ROW — plus each codec's
// compression fraction on the bench data (deterministic at a pinned seed).
//
// Two paths over one rendered FlatPage are measured per codec:
//   - compress: CompressPage(flat) — the real blob;
//   - measure: MeasurePage over the same FlatSpan — the zero-copy size-only
//     kernel the page packer runs. Its allocation counters (page_allocs /
//     allocs_per_row, via src/common/alloc_tracker) are deterministic and
//     gate in the perf-trajectory CI job; wall times stay report-only.
//
// Hand-rolled timing loops rather than google-benchmark so the binary
// always builds and shares the uniform bench flag set (--rows sets the
// tuples per page, --seed the data generator).
#include "bench/bench_common.h"
#include "common/alloc_tracker.h"
#include "common/logging.h"
#include "common/random.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"

namespace capd {
namespace bench {
namespace {

Schema BenchSchema() {
  return Schema({{"a", ValueType::kInt64, 8},
                 {"b", ValueType::kString, 12},
                 {"c", ValueType::kInt64, 8},
                 {"d", ValueType::kDouble, 8}});
}

std::vector<Row> BenchRows(size_t n, uint64_t seed) {
  Random rng(seed);
  const char* kWords[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int64(rng.Uniform(0, 500)),
         Value::String(kWords[rng.Next(5)]),
         Value::Int64(rng.Uniform(0, 1000000)),
         Value::Double(static_cast<double>(rng.Uniform(0, 1 << 20)))});
  }
  return rows;
}

// Repeats op() until ~50ms of wall time has accumulated and returns the
// per-call average in microseconds.
template <typename Fn>
double TimeUsPerCall(Fn&& op) {
  // Warm up + first measurement to pick an iteration count.
  const auto w0 = std::chrono::steady_clock::now();
  op();
  const double once_ms =
      std::max(Millis(w0, std::chrono::steady_clock::now()), 1e-6);
  const size_t iters =
      std::max<size_t>(1, static_cast<size_t>(50.0 / once_ms));
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) op();
  const double total_ms = Millis(t0, std::chrono::steady_clock::now());
  return total_ms * 1000.0 / static_cast<double>(iters);
}

void Run(BenchContext& ctx) {
  const Schema schema = BenchSchema();
  const size_t rows_per_page = static_cast<size_t>(ctx.flags.rows);
  const std::vector<Row> rows = BenchRows(rows_per_page, ctx.flags.seed);
  const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
  const std::unique_ptr<Codec> none = MakeCodec(CompressionKind::kNone, flat);
  const std::string base = none->CompressPage(flat);

  PrintHeader("Codec micro-benchmarks (alpha/beta CPU constants)");
  std::printf("%-12s %13s %12s %14s %7s %12s\n", "codec", "compress[us]",
              "measure[us]", "decompress[us]", "cf", "allocs/row");
  uint64_t sink = 0;
  for (CompressionKind kind :
       {CompressionKind::kNone, CompressionKind::kRow, CompressionKind::kPage,
        CompressionKind::kGlobalDict, CompressionKind::kRle}) {
    const std::unique_ptr<Codec> codec = MakeCodec(kind, flat);
    const std::string blob = codec->CompressPage(flat);
    // The measure/compress contract, asserted before timing it.
    CAPD_CHECK_EQ(codec->MeasurePage(flat), blob.size());

    const double compress_us =
        TimeUsPerCall([&] { codec->CompressPage(flat); });
    const double measure_us =
        TimeUsPerCall([&] { sink += codec->MeasurePage(flat); });
    const double decompress_us =
        TimeUsPerCall([&] { codec->DecompressPage(blob); });

    // Allocation cost of one size probe: the packer measures a flat span.
    const uint64_t a0 = AllocCount();
    sink += codec->MeasurePage(flat);
    const uint64_t measure_allocs = AllocCount() - a0;

    const double cf =
        static_cast<double>(blob.size()) / static_cast<double>(base.size());
    const double measure_apr = static_cast<double>(measure_allocs) /
                               static_cast<double>(rows_per_page);
    std::printf("%-12s %13.2f %12.2f %14.2f %7.3f %12.2f\n",
                CompressionKindName(kind), compress_us, measure_us,
                decompress_us, cf, measure_apr);
    const std::string key =
        std::string("[codec=") + CompressionKindName(kind) + "]";
    ctx.report.AddTimeMs("compress_us_per_page" + key, compress_us);
    ctx.report.AddTimeMs("measure_us_per_page" + key, measure_us);
    ctx.report.AddTimeMs("decompress_us_per_page" + key, decompress_us);
    ctx.report.AddValue("cf" + key, cf);
    ctx.report.AddCounter("compressed_bytes" + key, blob.size());
    ctx.report.AddCounter("measure_bytes" + key, codec->MeasurePage(flat));
    // Deterministic allocation counters for the size-only path: these gate
    // exactly in CI (zero for every codec except PAGE's dictionary plan).
    ctx.report.AddCounter("page_allocs" + key + "[path=measure]",
                          measure_allocs);
    ctx.report.AddValue("allocs_per_row" + key + "[path=measure]",
                        measure_apr);
    ctx.report.AddTimeMs("measure_speedup_vs_compress" + key,
                         measure_us > 0 ? compress_us / measure_us : 0.0);
  }
  CAPD_CHECK_GT(sink, 0u);  // keep the measure loops un-elidable
  std::printf("\nExpected: PAGE(LD) compress/decompress > ROW(NS); cf "
              "orders ROW < PAGE on this mixed-type data; measure[us] well "
              "under compress[us] with ~0 allocs/row for NONE/ROW/RLE/"
              "GLOBAL_DICT.\n");
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "micro_codecs",
                                /*default_rows=*/256,
                                /*default_seed=*/7, capd::bench::Run);
}
