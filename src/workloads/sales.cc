#include "workloads/sales.h"

#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/zipf.h"
#include "query/sql_parser.h"

namespace capd {
namespace sales {
namespace {

const char* kStates[] = {"CA", "NY", "TX", "WA", "FL", "IL", "MA", "OR", "NV", "AZ"};
const char* kChannels[] = {"ONLINE", "STORE", "PHONE", "PARTNER"};
const char* kPayments[] = {"CARD", "CASH", "WIRE", "CHECK"};
const char* kCategories[] = {"ELECTRONICS", "GROCERY", "APPAREL", "HOME", "TOYS", "SPORTS"};

constexpr int64_t kDateLo = 13149;  // 2006-01-01
constexpr int64_t kDateHi = 14610;  // 2010-01-01

template <size_t N>
std::string Pick(const char* const (&pool)[N], Random* rng) {
  return pool[rng->Next(N)];
}

}  // namespace

void Build(Database* db, const Options& options) {
  Random rng(options.seed);
  const uint64_t n_fact = options.fact_rows;
  const uint64_t n_products = std::max<uint64_t>(n_fact / 50, 8);
  const uint64_t n_stores = std::max<uint64_t>(n_fact / 400, 4);

  auto products = std::make_unique<Table>(
      "products", Schema({{"product_key", ValueType::kInt64, 8},
                          {"product_name", ValueType::kString, 20},
                          {"category", ValueType::kString, 12},
                          {"list_price", ValueType::kDouble, 8}}));
  for (uint64_t i = 1; i <= n_products; ++i) {
    products->AddRow({Value::Int64(static_cast<int64_t>(i)),
                      Value::String("product_" + std::to_string(i)),
                      Value::String(Pick(kCategories, &rng)),
                      Value::Double(rng.Uniform(2, 900))});
  }
  db->AddTable(std::move(products));

  auto stores = std::make_unique<Table>(
      "stores", Schema({{"store_key", ValueType::kInt64, 8},
                        {"store_state", ValueType::kString, 2},
                        {"store_size", ValueType::kInt64, 8}}));
  for (uint64_t i = 1; i <= n_stores; ++i) {
    stores->AddRow({Value::Int64(static_cast<int64_t>(i)),
                    Value::String(Pick(kStates, &rng)),
                    Value::Int64(rng.Uniform(500, 20000))});
  }
  db->AddTable(std::move(stores));

  // Fact table: wide, partly denormalized; skewed product popularity.
  ZipfGenerator product_zipf(n_products, 1.0);
  auto sales_tbl = std::make_unique<Table>(
      "sales", Schema({{"sale_id", ValueType::kInt64, 8},
                       {"sale_date", ValueType::kDate, 8},
                       {"product_key_fk", ValueType::kInt64, 8},
                       {"store_key_fk", ValueType::kInt64, 8},
                       {"state", ValueType::kString, 2},
                       {"channel", ValueType::kString, 8},
                       {"payment", ValueType::kString, 6},
                       {"quantity", ValueType::kInt64, 8},
                       {"price", ValueType::kDouble, 8},
                       {"discount", ValueType::kDouble, 8},
                       {"total", ValueType::kDouble, 8}}));
  for (uint64_t i = 1; i <= n_fact; ++i) {
    const double price = static_cast<double>(rng.Uniform(2, 900));
    const int64_t qty = rng.Uniform(1, 12);
    const double discount = static_cast<double>(rng.Uniform(0, 30)) / 100.0;
    sales_tbl->AddRow({Value::Int64(static_cast<int64_t>(i)),
                       Value::Date(rng.Uniform(kDateLo, kDateHi - 1)),
                       Value::Int64(static_cast<int64_t>(product_zipf.Next(&rng)) + 1),
                       Value::Int64(rng.Uniform(1, static_cast<int64_t>(n_stores))),
                       Value::String(Pick(kStates, &rng)),
                       Value::String(Pick(kChannels, &rng)),
                       Value::String(Pick(kPayments, &rng)),
                       Value::Int64(qty),
                       Value::Double(price),
                       Value::Double(discount),
                       Value::Double(price * static_cast<double>(qty) * (1 - discount))});
  }
  db->AddTable(std::move(sales_tbl));

  db->AddForeignKey({"sales", "product_key_fk", "products", "product_key"});
  db->AddForeignKey({"sales", "store_key_fk", "stores", "store_key"});
}

Workload MakeWorkload(const Database& db, const Options& options) {
  Random rng(options.seed ^ 0x51A1E5);
  std::vector<std::string> sql;

  // A spread of query shapes over the star schema; parameters jittered so
  // the 50 statements are distinct but realistic (a reporting dashboard).
  const char* kYears[] = {"2006", "2007", "2008", "2009"};
  for (int i = 0; i < 12; ++i) {
    const std::string year = kYears[i % 4];
    const std::string month = std::to_string(1 + (i * 7) % 12);
    const std::string mm = month.size() == 1 ? "0" + month : month;
    sql.push_back("SELECT state, SUM(total) FROM sales WHERE sale_date BETWEEN DATE '" +
                  year + "-" + mm + "-01' AND DATE '" + year + "-12-31' GROUP BY state");
  }
  for (int i = 0; i < 8; ++i) {
    sql.push_back(std::string("SELECT channel, SUM(total), COUNT(*) FROM sales WHERE state = '") +
                  kStates[i % 10] + "' GROUP BY channel");
  }
  for (int i = 0; i < 8; ++i) {
    sql.push_back("SELECT category, SUM(total) FROM sales JOIN products ON "
                  "product_key_fk = product_key WHERE sale_date >= DATE '" +
                  std::string(kYears[i % 4]) + "-06-01' GROUP BY category");
  }
  for (int i = 0; i < 6; ++i) {
    sql.push_back("SELECT store_state, SUM(total) FROM sales JOIN stores ON "
                  "store_key_fk = store_key WHERE quantity >= " +
                  std::to_string(2 + i) + " GROUP BY store_state");
  }
  for (int i = 0; i < 6; ++i) {
    sql.push_back(std::string("SELECT payment, COUNT(*) FROM sales WHERE channel = '") +
                  kChannels[i % 4] + "' GROUP BY payment");
  }
  for (int i = 0; i < 5; ++i) {
    sql.push_back("SELECT sale_date, SUM(quantity) FROM sales WHERE discount >= 0." +
                  std::to_string(1 + i) + " GROUP BY sale_date");
  }
  for (int i = 0; i < 5; ++i) {
    sql.push_back("SELECT product_key_fk, SUM(total) FROM sales WHERE sale_date "
                  "BETWEEN DATE '" + std::string(kYears[i % 4]) +
                  "-01-01' AND DATE '" + kYears[i % 4] +
                  "-03-31' GROUP BY product_key_fk");
  }
  CAPD_CHECK_EQ(sql.size(), 50u);

  Workload w;
  for (size_t i = 0; i < sql.size(); ++i) {
    std::string error;
    std::optional<Statement> stmt = ParseSql(sql[i], db, &error);
    CAPD_CHECK(stmt.has_value()) << "S" << (i + 1) << ": " << error;
    stmt->id = "S" + std::to_string(i + 1);
    w.statements.push_back(std::move(*stmt));
  }
  w.statements.push_back(Statement::Insert(
      "BULK_SALES_1", InsertStatement{"sales", options.bulk_rows}));
  w.statements.push_back(Statement::Insert(
      "BULK_SALES_2", InsertStatement{"sales", options.bulk_rows / 2}));
  return w;
}

}  // namespace sales
}  // namespace capd
