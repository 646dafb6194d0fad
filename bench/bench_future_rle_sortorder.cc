// Future-work study (Section 8): order-dependent compression is "quite
// sensitive to the sort orders". This fit bench quantifies that for BOTH
// order-dependent families — RLE and the succinct BITMAP structure — in the
// style of the Table 2/3 error fits:
//   1. sort-order sweep: the same lineitem column set packed under each
//      choice of leading sort column, with exact run counts, measured bytes,
//      packed pages, and the SampleCF estimate next to ground truth;
//   2. distinct-count sweep: synthetic sorted vs shuffled keys at distinct
//      counts straddling BitmapCodec's per-page cap, RLE vs BITMAP bytes;
//   3. sort-order deduction: permutations of one column set estimated
//      through the kSortOrder rule — exact sampled / deduced counters and a
//      bit-for-bit comparison against fresh sampling of every permutation.
#include <algorithm>

#include "bench/bench_common.h"
#include "common/random.h"
#include "compress/codec_factory.h"
#include "estimator/size_estimator.h"
#include "succinct/bitmap_codec.h"

namespace capd {
namespace bench {
namespace {

// Exact value-run count of column c over a sorted page: the runs RLE sees.
uint64_t CountRuns(const FlatPage& page, size_t c) {
  uint64_t runs = 0;
  for (size_t i = 0; i < page.num_rows(); ++i) {
    if (i == 0 || page.field(i, c) != page.field(i - 1, c)) ++runs;
  }
  return runs;
}

void SortOrderSweep(BenchContext& ctx, Stack& s) {
  IndexBuilder builder(s.db->table("lineitem"));
  const std::vector<std::string> cols = {"l_returnflag", "l_shipmode",
                                         "l_shipdate", "l_partkey"};
  const TableStats& stats = s.db->stats("lineitem");
  SampleManager samples(ctx.flags.seed);
  TableSampleSource source(*s.db, &samples);
  SampleCfEstimator estimator(*s.db, &source);

  PrintHeader("Sort-order sweep: RLE vs BITMAP vs leading sort column");
  std::printf("%-14s %9s %8s %9s %9s %9s %9s\n", "leading col", "|lead|",
              "runs", "RLE cf", "BMP cf", "RLE est", "BMP est");
  for (const std::string& lead : cols) {
    IndexDef def;
    def.object = "lineitem";
    def.key_columns = {lead};
    for (const std::string& c : cols) {
      if (c != lead) def.key_columns.push_back(c);
    }
    const FlatPage page = builder.MaterializePage(def);
    const uint64_t runs = CountRuns(page, 0);
    const IndexPhysical none =
        builder.Pack(def.WithCompression(CompressionKind::kNone), page);
    const std::string key = "[lead=" + lead + "]";
    ctx.report.AddCounter("distinct" + key, stats.column(lead).distinct);
    ctx.report.AddCounter("runs" + key, runs);

    double cf[2] = {0, 0};
    double est_cf[2] = {0, 0};
    const CompressionKind kinds[2] = {CompressionKind::kRle,
                                      CompressionKind::kBitmap};
    const char* tags[2] = {"rle", "bitmap"};
    for (int k = 0; k < 2; ++k) {
      const IndexDef variant = def.WithCompression(kinds[k]);
      const IndexPhysical phys = builder.Pack(variant, page);
      cf[k] = static_cast<double>(phys.fine_bytes()) /
              static_cast<double>(none.fine_bytes());
      const SampleCfResult est = estimator.Estimate(variant, 0.1);
      est_cf[k] = est.cf;
      ctx.report.AddValue(std::string(tags[k]) + "_cf" + key, cf[k]);
      ctx.report.AddValue(std::string(tags[k]) + "_est_cf" + key, est_cf[k]);
      ctx.report.AddValue(std::string(tags[k]) + "_est_bytes" + key,
                          est.est_bytes);
      ctx.report.AddCounter(std::string(tags[k]) + "_measured_bytes" + key,
                            phys.fine_bytes());
      ctx.report.AddCounter(std::string(tags[k]) + "_pages" + key,
                            phys.data_pages);
    }
    std::printf("%-14s %9llu %8llu %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
                lead.c_str(),
                static_cast<unsigned long long>(stats.column(lead).distinct),
                static_cast<unsigned long long>(runs), cf[0] * 100,
                cf[1] * 100, est_cf[0] * 100, est_cf[1] * 100);
  }
  std::printf("Expected: both families improve as the leading column's "
              "cardinality drops (longest runs / pure fills); BITMAP tracks "
              "RLE but pays one bitmap per distinct leading value.\n");
}

void DistinctSweep(BenchContext& ctx, Stack& s) {
  (void)s;
  const Schema schema({{"key", ValueType::kString, 10},
                       {"payload", ValueType::kInt64, 8}});
  const size_t n = std::min<uint64_t>(ctx.flags.rows, 4096);

  PrintHeader("Distinct-count sweep: RLE vs BITMAP bytes, sorted vs shuffled");
  std::printf("%-9s %14s %14s %14s %14s\n", "distinct", "RLE sorted",
              "BMP sorted", "RLE shuffled", "BMP shuffled");
  for (const uint64_t d : {2u, 8u, 32u, 64u, 256u}) {
    Random rng(ctx.flags.seed + d);
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Sorted: value v repeats n/d times contiguously.
      const uint64_t v = (i * d) / n;
      char buf[16];
      std::snprintf(buf, sizeof(buf), "k%06llu",
                    static_cast<unsigned long long>(v));
      rows.push_back({Value::String(buf),
                      Value::Int64(rng.Uniform(0, 1 << 20))});
    }
    std::vector<Row> shuffled = rows;
    for (size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[rng.Next(i + 1)]);
    }
    uint64_t bytes[4] = {0, 0, 0, 0};
    int slot = 0;
    for (const std::vector<Row>* set : {&rows, &shuffled}) {
      const FlatPage page = FlatPage::FromRows(*set, schema, 0, set->size());
      for (CompressionKind kind :
           {CompressionKind::kRle, CompressionKind::kBitmap}) {
        const std::unique_ptr<Codec> codec = MakeCodec(kind, page);
        bytes[slot++] = PackPages(page, *codec).payload_bytes;
      }
    }
    const std::string key = "[d=" + std::to_string(d) + "]";
    ctx.report.AddCounter("rle_sorted_bytes" + key, bytes[0]);
    ctx.report.AddCounter("bitmap_sorted_bytes" + key, bytes[1]);
    ctx.report.AddCounter("rle_shuffled_bytes" + key, bytes[2]);
    ctx.report.AddCounter("bitmap_shuffled_bytes" + key, bytes[3]);
    std::printf("%-9llu %14llu %14llu %14llu %14llu\n",
                static_cast<unsigned long long>(d),
                static_cast<unsigned long long>(bytes[0]),
                static_cast<unsigned long long>(bytes[1]),
                static_cast<unsigned long long>(bytes[2]),
                static_cast<unsigned long long>(bytes[3]));
  }
  std::printf("Expected: sorted BITMAP stays near-flat until distinct "
              "exceeds the per-page cap (%llu), where it falls back to NS; "
              "shuffling hurts both order-dependent families.\n",
              static_cast<unsigned long long>(
                  BitmapCodec::kMaxDistinctPerColumn));
}

void SortOrderDeduction(BenchContext& ctx, Stack& s) {
  constexpr double kF = 0.05;
  const std::vector<std::vector<std::string>> orders = {
      {"l_returnflag", "l_shipmode", "l_shipdate"},
      {"l_shipmode", "l_shipdate", "l_returnflag"},
      {"l_shipdate", "l_returnflag", "l_shipmode"}};

  PrintHeader("Sort-order deduction: permutations priced from one leaf");
  std::printf("%-8s %8s %10s %10s %10s\n", "family", "sampled", "deduced",
              "sortorder", "bit-equal");
  for (CompressionKind kind :
       {CompressionKind::kBitmap, CompressionKind::kRle}) {
    SampleManager samples(ctx.flags.seed);
    TableSampleSource source(*s.db, &samples);
    EstimationGraph graph(*s.db, &source, ErrorModel());
    graph.set_enable_sort_order(true);
    std::vector<IndexDef> targets;
    for (const auto& keys : orders) {
      IndexDef def;
      def.object = "lineitem";
      def.key_columns = keys;
      def.compression = kind;
      targets.push_back(def);
    }
    graph.AddTargets(targets);
    graph.Greedy(kF, /*e=*/0.25, /*q=*/0.9);
    const auto estimates = graph.Execute(kF);

    // Every permutation, deduced or sampled, must equal fresh sampling
    // bit for bit (same seed => same sample => same packing arithmetic).
    SampleManager fresh_samples(ctx.flags.seed);
    TableSampleSource fresh_source(*s.db, &fresh_samples);
    SampleCfEstimator fresh(*s.db, &fresh_source);
    uint64_t identical = 1;
    for (const IndexDef& def : targets) {
      const SampleCfResult& got = estimates.at(def.Signature());
      const SampleCfResult want = fresh.Estimate(def, kF);
      if (got.est_bytes != want.est_bytes || got.cf != want.cf) identical = 0;
      ctx.report.AddValue("est_bytes[" +
                              std::string(CompressionKindName(kind)) + "," +
                              def.key_columns.front() + "]",
                          got.est_bytes);
    }
    const std::string key =
        "[" + std::string(CompressionKindName(kind)) + "]";
    ctx.report.AddCounter("sampled" + key, graph.NumSampled());
    ctx.report.AddCounter("deduced" + key, graph.NumDeduced());
    ctx.report.AddCounter("sortorder_deduced" + key,
                          graph.NumSortOrderDeduced());
    ctx.report.AddCounter("deduced_bit_identical" + key, identical);
    std::printf("%-8s %8zu %10zu %10zu %10llu\n", CompressionKindName(kind),
                graph.NumSampled(), graph.NumDeduced(),
                graph.NumSortOrderDeduced(),
                static_cast<unsigned long long>(identical));
  }
  std::printf("Expected: one sampled leaf per family, every sibling order "
              "deduced, and deduced == fresh sampling bit for bit (the "
              "kSortOrder rule recomputes on the donor's sample).\n");
}

void Run(BenchContext& ctx) {
  Stack s = MakeTpchStack(ctx.flags.rows, 0.0, ctx.flags.seed);
  SortOrderSweep(ctx, s);
  DistinctSweep(ctx, s);
  SortOrderDeduction(ctx, s);
}

}  // namespace
}  // namespace bench
}  // namespace capd

int main(int argc, char** argv) {
  return capd::bench::BenchMain(argc, argv, "future_rle_sortorder",
                                /*default_rows=*/8000,
                                /*default_seed=*/20110829, capd::bench::Run);
}
