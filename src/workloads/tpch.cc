#include "workloads/tpch.h"

#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/zipf.h"
#include "query/sql_parser.h"

namespace capd {
namespace tpch {
namespace {

constexpr int64_t kDateLo = 8766;   // 1994-01-01
constexpr int64_t kDateHi = 10957;  // 2000-01-01 (exclusive-ish)

const char* kShipModes[] = {"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG_AIR"};
const char* kInstructs[] = {"DELIVER", "COLLECT", "RETURN", "NONE"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW", "5-NONE"};
const char* kSegments[] = {"AUTO", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"};
const char* kBrands[] = {"Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45"};
const char* kTypes[] = {"ECONOMY", "STANDARD", "PROMO", "MEDIUM", "LARGE", "SMALL"};
const char* kContainers[] = {"SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PKG"};
const char* kNations[] = {"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
                          "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
                          "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO",
                          "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "RUSSIA",
                          "UK", "US", "VIETNAM", "SAUDI"};

template <size_t N>
std::string Pick(const char* const (&pool)[N], Random* rng) {
  return pool[rng->Next(N)];
}

// Skew-aware pick in [1, n].
int64_t PickKey(uint64_t n, const ZipfGenerator* zipf, Random* rng) {
  if (zipf != nullptr) return static_cast<int64_t>(zipf->Next(rng)) + 1;
  return rng->Uniform(1, static_cast<int64_t>(n));
}

}  // namespace

void Build(Database* db, const Options& options) {
  Random rng(options.seed);
  const uint64_t n_lineitem = options.lineitem_rows;
  const uint64_t n_orders = std::max<uint64_t>(n_lineitem / 4, 16);
  const uint64_t n_customer = std::max<uint64_t>(n_orders / 10, 8);
  const uint64_t n_part = std::max<uint64_t>(n_lineitem / 30, 8);
  const uint64_t n_supplier = std::max<uint64_t>(n_part / 8, 4);
  const uint64_t n_nation = 25;

  std::unique_ptr<ZipfGenerator> part_zipf;
  std::unique_ptr<ZipfGenerator> supp_zipf;
  std::unique_ptr<ZipfGenerator> date_zipf;
  if (options.skew_z > 0) {
    part_zipf = std::make_unique<ZipfGenerator>(n_part, options.skew_z);
    supp_zipf = std::make_unique<ZipfGenerator>(n_supplier, options.skew_z);
    date_zipf = std::make_unique<ZipfGenerator>(
        static_cast<uint64_t>(kDateHi - kDateLo), options.skew_z);
  }

  // --- nation ---
  auto nation = std::make_unique<Table>(
      "nation", Schema({{"n_nationkey", ValueType::kInt64, 8},
                        {"n_name", ValueType::kString, 12},
                        {"n_regionkey", ValueType::kInt64, 8}}));
  for (uint64_t i = 1; i <= n_nation; ++i) {
    nation->AddRow({Value::Int64(static_cast<int64_t>(i)),
                    Value::String(kNations[(i - 1) % 25]),
                    Value::Int64(static_cast<int64_t>(i % 5))});
  }
  db->AddTable(std::move(nation));

  // --- supplier ---
  auto supplier = std::make_unique<Table>(
      "supplier", Schema({{"s_suppkey", ValueType::kInt64, 8},
                          {"s_name", ValueType::kString, 14},
                          {"s_nationkey", ValueType::kInt64, 8},
                          {"s_acctbal", ValueType::kDouble, 8}}));
  for (uint64_t i = 1; i <= n_supplier; ++i) {
    supplier->AddRow({Value::Int64(static_cast<int64_t>(i)),
                      Value::String("Supplier#" + std::to_string(i)),
                      Value::Int64(rng.Uniform(1, 25)),
                      Value::Double(rng.Uniform(-999, 9999))});
  }
  db->AddTable(std::move(supplier));

  // --- part ---
  auto part = std::make_unique<Table>(
      "part", Schema({{"p_partkey", ValueType::kInt64, 8},
                      {"p_name", ValueType::kString, 20},
                      {"p_brand", ValueType::kString, 10},
                      {"p_type", ValueType::kString, 16},
                      {"p_size", ValueType::kInt64, 8},
                      {"p_container", ValueType::kString, 10},
                      {"p_retailprice", ValueType::kDouble, 8}}));
  for (uint64_t i = 1; i <= n_part; ++i) {
    part->AddRow({Value::Int64(static_cast<int64_t>(i)),
                  Value::String("part_" + std::to_string(i % 500)),
                  Value::String(Pick(kBrands, &rng)),
                  Value::String(Pick(kTypes, &rng)),
                  Value::Int64(rng.Uniform(1, 50)),
                  Value::String(Pick(kContainers, &rng)),
                  Value::Double(900 + static_cast<double>(i % 1000))});
  }
  db->AddTable(std::move(part));

  // --- customer ---
  auto customer = std::make_unique<Table>(
      "customer", Schema({{"c_custkey", ValueType::kInt64, 8},
                          {"c_name", ValueType::kString, 18},
                          {"c_nationkey", ValueType::kInt64, 8},
                          {"c_acctbal", ValueType::kDouble, 8},
                          {"c_mktsegment", ValueType::kString, 10}}));
  for (uint64_t i = 1; i <= n_customer; ++i) {
    customer->AddRow({Value::Int64(static_cast<int64_t>(i)),
                      Value::String("Customer#" + std::to_string(i)),
                      Value::Int64(rng.Uniform(1, 25)),
                      Value::Double(rng.Uniform(-999, 9999)),
                      Value::String(Pick(kSegments, &rng))});
  }
  db->AddTable(std::move(customer));

  // --- orders ---
  auto orders = std::make_unique<Table>(
      "orders", Schema({{"o_orderkey", ValueType::kInt64, 8},
                        {"o_custkey", ValueType::kInt64, 8},
                        {"o_orderstatus", ValueType::kString, 1},
                        {"o_totalprice", ValueType::kDouble, 8},
                        {"o_orderdate", ValueType::kDate, 8},
                        {"o_orderpriority", ValueType::kString, 8},
                        {"o_shippriority", ValueType::kInt64, 8}}));
  for (uint64_t i = 1; i <= n_orders; ++i) {
    const int64_t date =
        date_zipf ? kDateLo + PickKey(kDateHi - kDateLo, date_zipf.get(), &rng) - 1
                  : rng.Uniform(kDateLo, kDateHi - 1);
    orders->AddRow({Value::Int64(static_cast<int64_t>(i)),
                    Value::Int64(PickKey(n_customer, nullptr, &rng)),
                    Value::String(rng.Bernoulli(0.5) ? "F" : "O"),
                    Value::Double(rng.Uniform(1000, 400000)),
                    Value::Date(date),
                    Value::String(Pick(kPriorities, &rng)),
                    Value::Int64(0)});
  }
  db->AddTable(std::move(orders));

  // --- lineitem ---
  auto lineitem = std::make_unique<Table>(
      "lineitem", Schema({{"l_orderkey", ValueType::kInt64, 8},
                          {"l_partkey", ValueType::kInt64, 8},
                          {"l_suppkey", ValueType::kInt64, 8},
                          {"l_linenumber", ValueType::kInt64, 8},
                          {"l_quantity", ValueType::kInt64, 8},
                          {"l_extendedprice", ValueType::kDouble, 8},
                          {"l_discount", ValueType::kDouble, 8},
                          {"l_tax", ValueType::kDouble, 8},
                          {"l_returnflag", ValueType::kString, 1},
                          {"l_linestatus", ValueType::kString, 1},
                          {"l_shipdate", ValueType::kDate, 8},
                          {"l_commitdate", ValueType::kDate, 8},
                          {"l_receiptdate", ValueType::kDate, 8},
                          {"l_shipinstruct", ValueType::kString, 12},
                          {"l_shipmode", ValueType::kString, 10}}));
  for (uint64_t i = 1; i <= n_lineitem; ++i) {
    const int64_t orderkey = 1 + static_cast<int64_t>((i - 1) / 4) %
                                     static_cast<int64_t>(n_orders);
    const uint64_t mode = rng.Next(7);
    const int64_t ship =
        date_zipf ? kDateLo + PickKey(kDateHi - kDateLo, date_zipf.get(), &rng) - 1
                  : rng.Uniform(kDateLo, kDateHi - 1);
    const double price = 900.0 + static_cast<double>(rng.Uniform(0, 99000)) / 1.0;
    lineitem->AddRow(
        {Value::Int64(orderkey),
         Value::Int64(PickKey(n_part, part_zipf.get(), &rng)),
         Value::Int64(PickKey(n_supplier, supp_zipf.get(), &rng)),
         Value::Int64(static_cast<int64_t>(i % 7) + 1),
         Value::Int64(rng.Uniform(1, 50)),
         Value::Double(price),
         Value::Double(static_cast<double>(rng.Uniform(0, 10)) / 100.0),
         Value::Double(static_cast<double>(rng.Uniform(0, 8)) / 100.0),
         Value::String(rng.Bernoulli(0.25) ? "R" : (rng.Bernoulli(0.5) ? "A" : "N")),
         Value::String(rng.Bernoulli(0.5) ? "F" : "O"),
         Value::Date(ship), Value::Date(ship + rng.Uniform(1, 30)),
         Value::Date(ship + rng.Uniform(1, 45)),
         // shipinstruct is functionally tied to shipmode with rare
         // exceptions (like country<->currency in real data): defeats the
         // optimizer's column-independence assumption without saturating
         // the combination space.
         Value::String(rng.Bernoulli(0.998) ? kInstructs[mode % 4]
                                            : Pick(kInstructs, &rng)),
         Value::String(kShipModes[mode])});
  }
  db->AddTable(std::move(lineitem));

  db->AddForeignKey({"lineitem", "l_orderkey", "orders", "o_orderkey"});
  db->AddForeignKey({"lineitem", "l_partkey", "part", "p_partkey"});
  db->AddForeignKey({"lineitem", "l_suppkey", "supplier", "s_suppkey"});
  db->AddForeignKey({"orders", "o_custkey", "customer", "c_custkey"});
  db->AddForeignKey({"customer", "c_nationkey", "nation", "n_nationkey"});
  db->AddForeignKey({"supplier", "s_nationkey", "nation", "n_nationkey"});
}

Workload MakeWorkload(const Database& db, const Options& options) {
  // 22 analytic queries in the SQL subset; parsed so the text doubles as
  // documentation and as a parser exercise.
  const std::vector<std::string> sql = {
      // Q1: pricing summary
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice) "
      "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
      "GROUP BY l_returnflag, l_linestatus",
      // Q2-ish: supplier account scan
      "SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal >= 5000",
      // Q3: shipping priority
      "SELECT l_orderkey, SUM(l_extendedprice) FROM lineitem "
      "WHERE l_shipdate > DATE '1995-03-15' GROUP BY l_orderkey",
      // Q4: order priority checking
      "SELECT o_orderpriority, COUNT(*) FROM orders "
      "WHERE o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1995-03-31' "
      "GROUP BY o_orderpriority",
      // Q5: local supplier volume
      "SELECT SUM(l_extendedprice) FROM lineitem "
      "JOIN supplier ON l_suppkey = s_suppkey "
      "WHERE l_shipdate BETWEEN DATE '1996-01-01' AND DATE '1996-12-31'",
      // Q6: forecasting revenue change
      "SELECT SUM(l_extendedprice) FROM lineitem "
      "WHERE l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' "
      "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
      // Q7: volume shipping by mode over two years
      "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem "
      "WHERE l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' "
      "GROUP BY l_shipmode",
      // Q8: brand share
      "SELECT p_brand, SUM(l_extendedprice) FROM lineitem "
      "JOIN part ON l_partkey = p_partkey GROUP BY p_brand",
      // Q9: product type profit
      "SELECT p_type, SUM(l_extendedprice) FROM lineitem "
      "JOIN part ON l_partkey = p_partkey "
      "WHERE l_shipdate >= DATE '1997-01-01' GROUP BY p_type",
      // Q10: returned items
      "SELECT l_orderkey, SUM(l_extendedprice) FROM lineitem "
      "WHERE l_returnflag = 'R' AND l_shipdate >= DATE '1997-06-01' "
      "GROUP BY l_orderkey",
      // Q11-ish: supplier stock value by nation
      "SELECT s_nationkey, SUM(s_acctbal) FROM supplier GROUP BY s_nationkey",
      // Q12: shipping modes and order priority
      "SELECT l_shipmode, COUNT(*) FROM lineitem "
      "WHERE l_shipmode = 'SHIP' AND l_receiptdate >= DATE '1996-01-01' "
      "GROUP BY l_shipmode",
      // Q13-ish: customer distribution
      "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
      // Q14: promotion effect
      "SELECT SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey "
      "WHERE l_shipdate BETWEEN DATE '1995-09-01' AND DATE '1995-09-30'",
      // Q15: top supplier (revenue by supplier over a quarter)
      "SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem "
      "WHERE l_shipdate BETWEEN DATE '1996-01-01' AND DATE '1996-03-31' "
      "GROUP BY l_suppkey",
      // Q16-ish: part brands by size
      "SELECT p_brand, COUNT(*) FROM part WHERE p_size >= 20 GROUP BY p_brand",
      // Q17: small-quantity-order revenue for one brand
      "SELECT SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey "
      "WHERE p_brand = 'Brand#23' AND l_quantity < 10",
      // Q18: large volume customers
      "SELECT l_orderkey, SUM(l_quantity) FROM lineitem GROUP BY l_orderkey",
      // Q19: discounted revenue, brand + quantity band
      "SELECT SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey "
      "WHERE p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11",
      // Q20-ish: suppliers with recent shipments
      "SELECT l_suppkey, COUNT(*) FROM lineitem "
      "WHERE l_shipdate >= DATE '1997-01-01' GROUP BY l_suppkey",
      // Q21-ish: late deliveries per supplier
      "SELECT l_suppkey, COUNT(*) FROM lineitem "
      "WHERE l_receiptdate > DATE '1997-06-30' AND l_linestatus = 'F' "
      "GROUP BY l_suppkey",
      // Q22-ish: wealthy customers by nation
      "SELECT c_nationkey, SUM(c_acctbal) FROM customer "
      "WHERE c_acctbal > 7000 GROUP BY c_nationkey",
  };

  Workload w;
  for (size_t i = 0; i < sql.size(); ++i) {
    std::string error;
    std::optional<Statement> stmt = ParseSql(sql[i], db, &error);
    CAPD_CHECK(stmt.has_value()) << "Q" << (i + 1) << ": " << error;
    stmt->id = "Q" + std::to_string(i + 1);
    w.statements.push_back(std::move(*stmt));
  }
  w.statements.push_back(Statement::Insert(
      "BULK_LINEITEM", InsertStatement{"lineitem", options.bulk_rows}));
  w.statements.push_back(Statement::Insert(
      "BULK_ORDERS", InsertStatement{"orders", options.bulk_rows / 4}));
  return w;
}

}  // namespace tpch
}  // namespace capd
