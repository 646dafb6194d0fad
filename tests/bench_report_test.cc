// Tests for the bench reporting library behind the tools/repro pipeline:
// deterministic JSON emission (locale-independent doubles, stable key
// order, schema_version) and the uniform --rows/--seed/--threads/--json
// flag parser shared by every bench binary.
#include <clocale>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bench_report.h"

namespace capd {
namespace {

TEST(BenchReportTest, EmitsSchemaVersionAndMeta) {
  BenchReport report("my_bench");
  report.set_rows(6000);
  report.set_seed(20110829);
  report.set_threads(4);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"my_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 6000"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 20110829"), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"build_type\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  // Ends with a newline so files are POSIX-friendly.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
}

TEST(BenchReportTest, StableKeyOrder) {
  BenchReport report("order_bench");
  report.AddCounter("zeta", 1);
  report.AddValue("alpha", 2.0);
  const std::string json = report.ToJson();
  // Top-level keys render in a fixed order regardless of metric content...
  const size_t schema_pos = json.find("\"schema_version\"");
  const size_t bench_pos = json.find("\"bench\"");
  const size_t meta_pos = json.find("\"meta\"");
  const size_t metrics_pos = json.find("\"metrics\"");
  ASSERT_NE(schema_pos, std::string::npos);
  ASSERT_NE(bench_pos, std::string::npos);
  ASSERT_NE(meta_pos, std::string::npos);
  ASSERT_NE(metrics_pos, std::string::npos);
  EXPECT_LT(schema_pos, bench_pos);
  EXPECT_LT(bench_pos, meta_pos);
  EXPECT_LT(meta_pos, metrics_pos);
  // ...and metrics keep insertion order, not alphabetical order.
  EXPECT_LT(json.find("\"zeta\""), json.find("\"alpha\""));
}

TEST(BenchReportTest, CountersRenderAsPlainIntegers) {
  BenchReport report("counter_bench");
  report.AddCounter("big", 18446744073709551615ull);
  report.AddCounter("zero", 0);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"value\": 18446744073709551615"), std::string::npos);
  EXPECT_NE(json.find("\"value\": 0"), std::string::npos);
  // No decimal point or exponent sneaks into a counter.
  EXPECT_EQ(json.find("18446744073709551615."), std::string::npos);
}

TEST(BenchReportTest, DoublesAreLocaleIndependent) {
  // A locale with ',' as decimal separator must not leak into the JSON.
  // de_DE may be absent in minimal containers; setlocale returns nullptr
  // then and the test still verifies the default-locale path.
  const char* prev = std::setlocale(LC_ALL, nullptr);
  const std::string saved = prev != nullptr ? prev : "C";
  std::setlocale(LC_ALL, "de_DE.UTF-8");
  BenchReport report("locale_bench");
  report.AddValue("pi_ish", 3.140625);
  report.AddTimeMs("half", 0.5);
  const std::string json = report.ToJson();
  std::setlocale(LC_ALL, saved.c_str());
  EXPECT_NE(json.find("3.140625"), std::string::npos);
  EXPECT_NE(json.find("0.5"), std::string::npos);
  EXPECT_EQ(json.find("3,140625"), std::string::npos);
  EXPECT_EQ(json.find("0,5"), std::string::npos);
}

TEST(BenchReportTest, DoublesRoundTripShortest) {
  BenchReport report("roundtrip_bench");
  report.AddValue("third", 1.0 / 3.0);
  report.AddValue("tenth", 0.1);
  const std::string json = report.ToJson();
  // std::to_chars shortest form: 0.1 stays "0.1", not 0.1000000000000000055…
  EXPECT_NE(json.find("\"value\": 0.1"), std::string::npos);
  EXPECT_NE(json.find("0.3333333333333333"), std::string::npos);
}

TEST(BenchReportTest, NonFiniteDoublesBecomeNull) {
  BenchReport report("nonfinite_bench");
  report.AddValue("nan", std::nan(""));
  report.AddValue("inf", std::numeric_limits<double>::infinity());
  const std::string json = report.ToJson();
  // Both payloads render as null — JSON has no inf/nan literals.
  EXPECT_EQ(json.find("\"value\": nan"), std::string::npos);
  EXPECT_EQ(json.find("\"value\": inf"), std::string::npos);
  size_t nulls = 0;
  for (size_t pos = json.find("null"); pos != std::string::npos;
       pos = json.find("null", pos + 1)) {
    ++nulls;
  }
  EXPECT_EQ(nulls, 2u);
}

TEST(BenchReportTest, MetricKindStringsMatchSchema) {
  EXPECT_STREQ(MetricKindName(MetricKind::kCounter), "counter");
  EXPECT_STREQ(MetricKindName(MetricKind::kValue), "value");
  EXPECT_STREQ(MetricKindName(MetricKind::kTimeMs), "time_ms");
  BenchReport report("kind_bench");
  report.AddCounter("c", 1);
  report.AddValue("v", 1.0);
  report.AddTimeMs("t", 1.0);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"value\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"time_ms\""), std::string::npos);
}

TEST(BenchReportTest, EscapesMetricNames) {
  BenchReport report("escape_bench");
  report.AddValue("quote\"back\\slash", 1.0);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(BenchReportTest, DuplicateMetricNameDies) {
  BenchReport report("dup_bench");
  report.AddCounter("x", 1);
  EXPECT_DEATH(report.AddValue("x", 2.0), "duplicate");
}

TEST(BenchReportTest, MetricsAccessorKeepsKindsAndPayloads) {
  BenchReport report("payload_bench");
  report.AddCounter("c", 42);
  report.AddValue("v", -1.5);
  const auto& metrics = report.metrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].kind, MetricKind::kCounter);
  EXPECT_EQ(metrics[0].count, 42u);
  EXPECT_EQ(metrics[1].kind, MetricKind::kValue);
  EXPECT_DOUBLE_EQ(metrics[1].value, -1.5);
}

// --- ParseBenchFlags ---

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(ParseBenchFlagsTest, ParsesFullFlagSet) {
  std::vector<std::string> args = {"bench_x", "--rows", "5000", "--seed", "7"};
  args.insert(args.end(), {"--threads", "8", "--json", "/tmp/out.json"});
  auto argv = Argv(args);
  BenchFlags flags;
  std::string error;
  ASSERT_TRUE(ParseBenchFlags(static_cast<int>(argv.size()), argv.data(),
                              &flags, &error))
      << error;
  EXPECT_EQ(flags.rows, 5000u);
  EXPECT_EQ(flags.seed, 7u);
  EXPECT_EQ(flags.threads, 8);
  EXPECT_EQ(flags.json_path, "/tmp/out.json");
  EXPECT_FALSE(flags.help);
}

TEST(ParseBenchFlagsTest, DefaultsWhenOmitted) {
  std::vector<std::string> args = {"bench_x"};
  auto argv = Argv(args);
  BenchFlags flags;
  std::string error;
  ASSERT_TRUE(ParseBenchFlags(static_cast<int>(argv.size()), argv.data(),
                              &flags, &error));
  EXPECT_EQ(flags.rows, 0u);  // 0 = use the bench's default
  EXPECT_EQ(flags.seed, 0u);
  EXPECT_EQ(flags.threads, 1);
  EXPECT_TRUE(flags.json_path.empty());
}

TEST(ParseBenchFlagsTest, RejectsPositionalArgs) {
  // Regression guard for the old bench_fig11 positional row count.
  std::vector<std::string> args = {"bench_fig11_estimation_cost", "2000"};
  auto argv = Argv(args);
  BenchFlags flags;
  std::string error;
  EXPECT_FALSE(ParseBenchFlags(static_cast<int>(argv.size()), argv.data(),
                               &flags, &error));
  EXPECT_NE(error.find("2000"), std::string::npos);
}

TEST(ParseBenchFlagsTest, RejectsBadValues) {
  const std::vector<std::vector<std::string>> cases = {
      {"b", "--rows"},             // missing argument
      {"b", "--rows", "abc"},      // non-numeric
      {"b", "--rows", "0"},        // zero invalid (0 is "unset", not a size)
      {"b", "--rows", "-5"},       // signed: strtoull would wrap it
      {"b", "--seed", "-1"},       // signed
      {"b", "--seed", "99999999999999999999"},  // past 2^64: would saturate
      {"b", "--threads", "0"},     // below minimum
      {"b", "--threads", "9999"},  // above maximum
      {"b", "--frobnicate"},       // unknown flag
  };
  for (auto test_case : cases) {
    auto argv = Argv(test_case);
    BenchFlags flags;
    std::string error;
    EXPECT_FALSE(ParseBenchFlags(static_cast<int>(argv.size()), argv.data(),
                                 &flags, &error))
        << test_case[1];
    EXPECT_FALSE(error.empty()) << test_case[1];
  }
}

TEST(ParseBenchFlagsTest, HelpShortCircuits) {
  std::vector<std::string> args = {"bench_x", "--help"};
  auto argv = Argv(args);
  BenchFlags flags;
  std::string error;
  ASSERT_TRUE(ParseBenchFlags(static_cast<int>(argv.size()), argv.data(),
                              &flags, &error));
  EXPECT_TRUE(flags.help);
  EXPECT_NE(BenchUsage("bench_x").find("--rows"), std::string::npos);
  EXPECT_NE(BenchUsage("bench_x").find("--json"), std::string::npos);
}

TEST(BenchReportTest, WriteJsonFileRejectsBadPath) {
  BenchReport report("io_bench");
  report.AddCounter("c", 1);
  std::string error;
  EXPECT_FALSE(report.WriteJsonFile("/nonexistent_dir_xyz/out.json", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace capd
