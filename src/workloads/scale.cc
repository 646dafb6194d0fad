#include "workloads/scale.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/zipf.h"
#include "query/sql_parser.h"
#include "storage/block.h"

namespace capd {
namespace scale {
namespace {

const char* kDeviceTypes[] = {"SENSOR", "GATEWAY", "METER", "CAMERA",
                              "TRACKER"};
const char* kStatuses[] = {"E", "W", "C"};  // non-OK statuses

constexpr int64_t kDateLo = 18262;  // 2020-01-01
constexpr int64_t kDateHi = 18993;  // 2022-01-01
constexpr size_t kNumRegions = 20;

std::string RegionName(uint64_t i) {
  std::string suffix = std::to_string(i);
  if (suffix.size() == 1) suffix = "0" + suffix;
  return "region_" + suffix;
}

// Per-block row generator for the `events` fact table. Each block draws
// from a fresh Random seeded by BlockSeed(seed, block), so any block can be
// produced independently (and concurrently) and always yields the same
// bytes. A row's draws follow its predecessors' in the stream, so a fill
// makes every row's draws up to the last kept row; only kept rows pay for
// their Zipf ranks and cells. The Zipf generators are shared: Rank() is
// const and thread-safe.
class EventsSource : public BlockSource {
 public:
  EventsSource(uint64_t seed, uint64_t n_devices, uint64_t sensor_domain)
      : seed_(seed),
        device_zipf_(n_devices, 1.0),
        sensor_zipf_(sensor_domain, 1.0) {
    for (uint64_t i = 0; i < kNumRegions; ++i) {
      region_names_.push_back(RegionName(i));
    }
  }

  void FillBlock(uint64_t block_index, uint64_t first_row,
                 const std::vector<uint64_t>& rows,
                 ColumnBlock* out) const override {
    Random rng(BlockSeed(seed_, block_index));
    out->Resize(rows.size());
    size_t j = 0;  // next out row
    for (uint64_t r = 0; j < rows.size(); ++r) {
      const double device_u = rng.NextDouble();
      const double sensor_u = rng.NextDouble();
      const int64_t ts = rng.Uniform(kDateLo, kDateHi - 1);
      const int64_t value = rng.Uniform(0, 1000);
      // ~90% healthy readings, the rest error/warn/critical.
      const char* status = rng.Next(10) < 9 ? "O" : kStatuses[rng.Next(3)];
      const uint64_t region = rng.Next(kNumRegions);
      const int64_t payload = rng.Uniform(0, 99);
      for (; j < rows.size() && rows[j] == r; ++j) {
        out->SetInt64(0, j, static_cast<int64_t>(first_row + r) + 1);
        out->SetInt64(1, j,
                      static_cast<int64_t>(device_zipf_.Rank(device_u)) + 1);
        out->SetInt64(2, j,
                      static_cast<int64_t>(sensor_zipf_.Rank(sensor_u)) + 1);
        out->SetInt64(3, j, ts);
        out->SetDouble(4, j, static_cast<double>(value));
        out->SetString(5, j, status);
        out->SetString(6, j, region_names_[region]);
        out->SetInt64(7, j, payload);
      }
    }
  }

 private:
  uint64_t seed_;
  ZipfGenerator device_zipf_;
  ZipfGenerator sensor_zipf_;
  std::vector<std::string> region_names_;  // region_names_[i] = RegionName(i)
};

}  // namespace

uint64_t NumDevices(uint64_t fact_rows) {
  return std::clamp<uint64_t>(fact_rows / 1000, 16, 20000);
}

uint64_t SensorDomain(uint64_t fact_rows) {
  // >= n/4 so at 10^7+ rows the domain exceeds ZipfGenerator::kCdfCap and
  // the analytic tail actually runs in the sweep.
  return std::max<uint64_t>(fact_rows / 4, 4096);
}

void Build(Database* db, const Options& options) {
  const uint64_t n_fact = options.fact_rows;
  const uint64_t n_devices = NumDevices(n_fact);

  // Dimension: small and resident.
  Random rng(options.seed ^ 0xD1CEull);
  auto devices = std::make_unique<Table>(
      "devices", Schema({{"device_key", ValueType::kInt64, 8},
                         {"device_type", ValueType::kString, 8},
                         {"device_region", ValueType::kString, 10}}));
  for (uint64_t i = 1; i <= n_devices; ++i) {
    devices->AddRow({Value::Int64(static_cast<int64_t>(i)),
                     Value::String(kDeviceTypes[rng.Next(5)]),
                     Value::String(RegionName(rng.Next(kNumRegions)))});
  }
  db->AddTable(std::move(devices));

  // Fact: generated block-by-block, never resident.
  auto source = std::make_shared<EventsSource>(options.seed, n_devices,
                                               SensorDomain(n_fact));
  auto events = std::make_unique<Table>(
      "events",
      Schema({{"e_id", ValueType::kInt64, 8},
              {"e_device", ValueType::kInt64, 8},
              {"e_sensor", ValueType::kInt64, 8},
              {"e_ts", ValueType::kDate, 8},
              {"e_value", ValueType::kDouble, 8},
              {"e_status", ValueType::kString, 1},
              {"e_region", ValueType::kString, 10},
              {"e_payload", ValueType::kInt64, 8}}),
      n_fact, std::move(source));
  db->AddTable(std::move(events));

  db->AddForeignKey({"events", "e_device", "devices", "device_key"});
}

Workload MakeWorkload(const Database& db, const Options& options) {
  const std::vector<std::string> sql = {
      "SELECT e_region, SUM(e_value) FROM events WHERE e_ts BETWEEN "
      "DATE '2020-01-01' AND DATE '2020-12-31' GROUP BY e_region",
      "SELECT e_status, COUNT(*) FROM events WHERE e_region = 'region_03' "
      "GROUP BY e_status",
      "SELECT e_device, SUM(e_value) FROM events WHERE e_status = 'E' "
      "GROUP BY e_device",
      "SELECT device_type, SUM(e_value) FROM events JOIN devices ON "
      "e_device = device_key WHERE e_ts >= DATE '2021-01-01' "
      "GROUP BY device_type",
      "SELECT e_ts, COUNT(*) FROM events WHERE e_value >= 750 GROUP BY e_ts",
      "SELECT e_sensor, SUM(e_value) FROM events WHERE e_ts BETWEEN "
      "DATE '2021-03-01' AND DATE '2021-03-31' GROUP BY e_sensor",
      "SELECT e_status, SUM(e_payload) FROM events WHERE e_device <= 50 "
      "GROUP BY e_status",
      "SELECT e_region, COUNT(*) FROM events WHERE e_payload BETWEEN 10 AND "
      "40 GROUP BY e_region",
  };

  Workload w;
  for (size_t i = 0; i < sql.size(); ++i) {
    std::string error;
    std::optional<Statement> stmt = ParseSql(sql[i], db, &error);
    CAPD_CHECK(stmt.has_value()) << "E" << (i + 1) << ": " << error;
    stmt->id = "E" + std::to_string(i + 1);
    w.statements.push_back(std::move(*stmt));
  }
  w.statements.push_back(Statement::Insert(
      "BULK_EVENTS", InsertStatement{"events", options.bulk_rows}));
  return w;
}

}  // namespace scale
}  // namespace capd
