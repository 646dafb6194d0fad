#include "storage/encoding.h"

#include <cstring>

#include "common/logging.h"

namespace capd {
namespace {

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t u) {
  return static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
}

void AppendBigEndian64(uint64_t u, std::string* out) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((u >> shift) & 0xff));
  }
}

uint64_t ReadBigEndian64(std::string_view data) {
  uint64_t u = 0;
  for (size_t i = 0; i < 8; ++i) {
    u = (u << 8) | static_cast<unsigned char>(data[i]);
  }
  return u;
}

// Order-preserving transform for IEEE doubles: flip sign bit for positives,
// flip all bits for negatives.
uint64_t DoubleToOrderedBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & (1ull << 63)) return ~bits;
  return bits | (1ull << 63);
}

double OrderedBitsToDouble(uint64_t bits) {
  if (bits & (1ull << 63)) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

void EncodeField(const Value& v, const Column& col, std::string* out) {
  CAPD_CHECK(v.type() == col.type)
      << "value type " << ValueTypeName(v.type()) << " vs column " << col.name
      << " of " << ValueTypeName(col.type);
  if (col.type == ValueType::kString) {
    EncodeStringField(v.AsString(), col, out);
  } else if (col.type == ValueType::kDouble) {
    EncodeDoubleField(v.AsDouble(), col, out);
  } else {
    EncodeInt64Field(v.AsInt64(), col, out);
  }
}

void EncodeInt64Field(int64_t v, const Column& col, std::string* out) {
  CAPD_CHECK_EQ(col.width, 8u) << "integer columns are 8 bytes wide";
  AppendBigEndian64(ZigZag(v), out);
}

void EncodeDoubleField(double v, const Column& col, std::string* out) {
  CAPD_CHECK_EQ(col.width, 8u);
  AppendBigEndian64(DoubleToOrderedBits(v), out);
}

void EncodeStringField(std::string_view s, const Column& col,
                       std::string* out) {
  const size_t w = col.width;
  const size_t n = s.size() > w ? w : s.size();
  out->append(w - n, '\0');  // left pad: redundancy at the front
  out->append(s.data(), n);  // truncate over-wide strings
}

std::string EncodeFieldToString(const Value& v, const Column& col) {
  std::string out;
  out.reserve(col.width);
  EncodeField(v, col, &out);
  return out;
}

Value DecodeField(std::string_view data, const Column& col) {
  CAPD_CHECK_EQ(data.size(), static_cast<size_t>(col.width));
  switch (col.type) {
    case ValueType::kInt64:
      return Value::Int64(UnZigZag(ReadBigEndian64(data)));
    case ValueType::kDate:
      return Value::Date(UnZigZag(ReadBigEndian64(data)));
    case ValueType::kDouble:
      return Value::Double(OrderedBitsToDouble(ReadBigEndian64(data)));
    case ValueType::kString: {
      size_t start = 0;
      while (start < data.size() && data[start] == '\0') ++start;
      return Value::String(std::string(data.substr(start)));
    }
  }
  return Value();
}

}  // namespace capd
