#include "workloads/tpcds_lite.h"

#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/zipf.h"
#include "query/sql_parser.h"

namespace capd {
namespace tpcds {

void Build(Database* db, const Options& options) {
  Random rng(options.seed);
  const uint64_t n_fact = options.store_sales_rows;
  const uint64_t n_item = std::max<uint64_t>(n_fact / 20, 10);
  const uint64_t n_store = std::max<uint64_t>(n_fact / 500, 3);

  auto item = std::make_unique<Table>(
      "item", Schema({{"i_item_sk", ValueType::kInt64, 8},
                      {"i_brand", ValueType::kString, 12},
                      {"i_class", ValueType::kString, 10},
                      {"i_current_price", ValueType::kDouble, 8}}));
  const char* kClasses[] = {"shirts", "pants", "dresses", "shoes", "hats"};
  for (uint64_t i = 1; i <= n_item; ++i) {
    item->AddRow({Value::Int64(static_cast<int64_t>(i)),
                  Value::String("brand_" + std::to_string(i % 40)),
                  Value::String(kClasses[i % 5]),
                  Value::Double(rng.Uniform(1, 300))});
  }
  db->AddTable(std::move(item));

  auto store = std::make_unique<Table>(
      "store", Schema({{"st_store_sk", ValueType::kInt64, 8},
                       {"st_state", ValueType::kString, 2},
                       {"st_tax", ValueType::kDouble, 8}}));
  const char* kStates[] = {"TN", "GA", "SC", "AL", "KY"};
  for (uint64_t i = 1; i <= n_store; ++i) {
    store->AddRow({Value::Int64(static_cast<int64_t>(i)),
                   Value::String(kStates[i % 5]),
                   Value::Double(0.01 * static_cast<double>(rng.Uniform(0, 9)))});
  }
  db->AddTable(std::move(store));

  // TPC-DS item popularity is strongly skewed: Zipf 0.8.
  ZipfGenerator item_zipf(n_item, 0.8);
  auto ss = std::make_unique<Table>(
      "store_sales", Schema({{"ss_sold_date_sk", ValueType::kInt64, 8},
                             {"ss_item_sk_fk", ValueType::kInt64, 8},
                             {"ss_store_sk_fk", ValueType::kInt64, 8},
                             {"ss_quantity", ValueType::kInt64, 8},
                             {"ss_sales_price", ValueType::kDouble, 8},
                             {"ss_ext_discount", ValueType::kDouble, 8},
                             {"ss_promo", ValueType::kString, 8}}));
  const char* kPromos[] = {"NONE", "EMAIL", "TV", "RADIO"};
  for (uint64_t i = 1; i <= n_fact; ++i) {
    ss->AddRow({Value::Int64(2450000 + rng.Uniform(0, 1800)),
                Value::Int64(static_cast<int64_t>(item_zipf.Next(&rng)) + 1),
                Value::Int64(rng.Uniform(1, static_cast<int64_t>(n_store))),
                Value::Int64(rng.Uniform(1, 99)),
                Value::Double(rng.Uniform(1, 300)),
                Value::Double(0.01 * static_cast<double>(rng.Uniform(0, 40))),
                Value::String(kPromos[rng.Next(4)])});
  }
  db->AddTable(std::move(ss));

  db->AddForeignKey({"store_sales", "ss_item_sk_fk", "item", "i_item_sk"});
  db->AddForeignKey({"store_sales", "ss_store_sk_fk", "store", "st_store_sk"});
}

Workload MakeWorkload(const Database& db, const Options& options) {
  // A reporting-dashboard mix over the star schema: date-range rollups,
  // promo/brand/state breakdowns, and two dimension joins. Deterministic —
  // the statements are fixed; only the data under them follows the seed.
  const std::vector<std::string> sql = {
      "SELECT ss_item_sk_fk, SUM(ss_sales_price) FROM store_sales "
      "WHERE ss_sold_date_sk BETWEEN 2450100 AND 2450400 "
      "GROUP BY ss_item_sk_fk",
      "SELECT ss_promo, SUM(ss_sales_price), COUNT(ss_quantity) "
      "FROM store_sales WHERE ss_quantity >= 50 GROUP BY ss_promo",
      "SELECT i_brand, SUM(ss_sales_price) FROM store_sales "
      "JOIN item ON ss_item_sk_fk = i_item_sk "
      "WHERE ss_sold_date_sk >= 2451000 GROUP BY i_brand",
      "SELECT i_class, SUM(ss_quantity) FROM store_sales "
      "JOIN item ON ss_item_sk_fk = i_item_sk "
      "WHERE ss_promo = 'EMAIL' GROUP BY i_class",
      "SELECT st_state, SUM(ss_sales_price) FROM store_sales "
      "JOIN store ON ss_store_sk_fk = st_store_sk "
      "WHERE ss_quantity >= 25 GROUP BY st_state",
      "SELECT ss_sold_date_sk, SUM(ss_quantity) FROM store_sales "
      "WHERE ss_ext_discount >= 0.2 GROUP BY ss_sold_date_sk",
      "SELECT ss_store_sk_fk, COUNT(ss_item_sk_fk) FROM store_sales "
      "WHERE ss_promo = 'TV' GROUP BY ss_store_sk_fk",
      "SELECT ss_item_sk_fk, ss_quantity, ss_sales_price FROM store_sales "
      "WHERE ss_sold_date_sk BETWEEN 2450000 AND 2450090",
      "SELECT i_brand, i_class, SUM(ss_sales_price) FROM store_sales "
      "JOIN item ON ss_item_sk_fk = i_item_sk "
      "WHERE ss_sales_price >= 250.0 GROUP BY i_brand, i_class",
      "SELECT st_state, COUNT(ss_quantity) FROM store_sales "
      "JOIN store ON ss_store_sk_fk = st_store_sk "
      "WHERE ss_sold_date_sk >= 2451500 GROUP BY st_state",
      "SELECT ss_promo, SUM(ss_ext_discount) FROM store_sales "
      "WHERE ss_item_sk_fk <= 20 GROUP BY ss_promo",
      "SELECT ss_quantity, COUNT(ss_promo) FROM store_sales "
      "WHERE ss_sales_price BETWEEN 10.0 AND 60.0 GROUP BY ss_quantity",
  };

  Workload w;
  for (size_t i = 0; i < sql.size(); ++i) {
    std::string error;
    std::optional<Statement> stmt = ParseSql(sql[i], db, &error);
    CAPD_CHECK(stmt.has_value()) << "DS" << (i + 1) << ": " << error;
    stmt->id = "DS" + std::to_string(i + 1);
    w.statements.push_back(std::move(*stmt));
  }
  w.statements.push_back(Statement::Insert(
      "BULK_STORE_SALES", InsertStatement{"store_sales", options.bulk_rows}));
  return w;
}

}  // namespace tpcds
}  // namespace capd
