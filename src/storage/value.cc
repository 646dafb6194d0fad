#include "storage/value.h"

#include <cmath>

#include "common/logging.h"

namespace capd {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kDate:
      return "DATE";
  }
  return "?";
}

Value Value::Int64(int64_t v) {
  Value out;
  out.type_ = ValueType::kInt64;
  out.int_ = v;
  return out;
}

Value Value::Double(double v) {
  Value out;
  out.type_ = ValueType::kDouble;
  out.double_ = v;
  return out;
}

Value Value::String(std::string v) {
  Value out;
  out.type_ = ValueType::kString;
  out.str_ = std::move(v);
  return out;
}

Value Value::Date(int64_t days) {
  Value out;
  out.type_ = ValueType::kDate;
  out.int_ = days;
  return out;
}

int64_t Value::AsInt64() const {
  CAPD_CHECK(type_ == ValueType::kInt64 || type_ == ValueType::kDate)
      << "not an integer value: " << ValueTypeName(type_);
  return int_;
}

double Value::AsDouble() const {
  CAPD_CHECK(type_ == ValueType::kDouble) << "not a double value";
  return double_;
}

const std::string& Value::AsString() const {
  CAPD_CHECK(type_ == ValueType::kString) << "not a string value";
  return str_;
}

double Value::NumericKey() const {
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kDate:
      return static_cast<double>(int_);
    case ValueType::kDouble:
      return double_;
    case ValueType::kString:
      return StringNumericKey(str_);
  }
  return 0.0;
}

double StringNumericKey(std::string_view s) {
  double code = 0.0;
  for (size_t i = 0; i < 6; ++i) {
    const double b = i < s.size() ? static_cast<unsigned char>(s[i]) : 0.0;
    code = code * 256.0 + b;
  }
  return code;
}

int Value::Compare(const Value& other) const {
  CAPD_CHECK(type_ == other.type_)
      << "cross-type compare: " << ValueTypeName(type_) << " vs "
      << ValueTypeName(other.type_);
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kDate:
      return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
    case ValueType::kDouble:
      return double_ < other.double_ ? -1 : (double_ > other.double_ ? 1 : 0);
    case ValueType::kString:
      return str_ < other.str_ ? -1 : (str_ > other.str_ ? 1 : 0);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kInt64:
    case ValueType::kDate:
      return std::to_string(int_);
    case ValueType::kDouble:
      return std::to_string(double_);
    case ValueType::kString:
      return str_;
  }
  return "";
}

}  // namespace capd
