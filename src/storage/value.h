// Runtime value representation. The storage layer is deliberately small: four
// physical types cover everything the paper's workloads need (integers,
// dates-as-day-numbers, doubles, fixed-width strings).
#ifndef CAPD_STORAGE_VALUE_H_
#define CAPD_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace capd {

enum class ValueType : uint8_t {
  kInt64,
  kDouble,
  kString,
  kDate,  // stored as days since 1970-01-01, compared as integers
};

const char* ValueTypeName(ValueType t);

// A dynamically-typed value. Copyable; strings own their bytes.
class Value {
 public:
  Value() : type_(ValueType::kInt64), int_(0) {}

  static Value Int64(int64_t v);
  static Value Double(double v);
  static Value String(std::string v);
  static Value Date(int64_t days);

  ValueType type() const { return type_; }
  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;

  // Numeric view used by histogram/selectivity code: ints and dates map to
  // their integer value, doubles to themselves, strings to a prefix-based
  // order-preserving code.
  double NumericKey() const;

  // Total order within a type. Comparing across types is a logic error.
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  std::string ToString() const;

 private:
  ValueType type_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
};

// A row is a positional vector of values matching a Schema.
using Row = std::vector<Value>;

// Value::NumericKey of a string: an order-preserving code from its first
// 6 bytes.
double StringNumericKey(std::string_view s);

}  // namespace capd

#endif  // CAPD_STORAGE_VALUE_H_
