// Fixed-width field encoding. Each value is rendered into exactly
// column.width bytes with the compressible redundancy at the FRONT:
//   - integers/dates: zigzag, then big-endian with leading 0x00 bytes;
//   - doubles: order-preserving 8-byte big-endian of the sign-flipped bits;
//   - strings: right-justified, left-padded with 0x00 ("00000abc" in the
//     paper's NULL-suppression example).
// Byte-wise lexicographic comparison of encoded fields matches Value order
// for the numeric types and for equal-length strings (variable-length
// strings order by (length, content) — the index builder sorts on Value
// order, so this only affects how well the prefix codec's anchors line up).
// These are per-field primitives: whole pages are rendered into one
// columnar arena by FlatPage (src/compress/flat_page.h), the only page
// representation the codecs read and write.
#ifndef CAPD_STORAGE_ENCODING_H_
#define CAPD_STORAGE_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "storage/schema.h"
#include "storage/value.h"

namespace capd {

// Encodes `v` into exactly `col.width` bytes (appended to *out).
void EncodeField(const Value& v, const Column& col, std::string* out);

// EncodeField's typed halves, for ColumnBlock cells (INT64 and DATE, and
// DOUBLE, are 8 bytes wide, CHECKed).
void EncodeInt64Field(int64_t v, const Column& col, std::string* out);
void EncodeDoubleField(double v, const Column& col, std::string* out);
void EncodeStringField(std::string_view s, const Column& col,
                       std::string* out);

// Convenience: returns the encoded field as its own string.
std::string EncodeFieldToString(const Value& v, const Column& col);

// Decodes a field previously produced by EncodeField. `data` must hold
// exactly col.width bytes.
Value DecodeField(std::string_view data, const Column& col);

}  // namespace capd

#endif  // CAPD_STORAGE_ENCODING_H_
