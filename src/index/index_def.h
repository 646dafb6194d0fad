// Logical index definitions: the objects the physical-design tool reasons
// about. An IndexDef names a base object (table or materialized view), key
// and included columns, clustered-ness, an optional partial-index filter,
// and a compression method. Two defs that differ only in compression are
// "compressed variants" of each other (Section 3 of the paper).
#ifndef CAPD_INDEX_INDEX_DEF_H_
#define CAPD_INDEX_INDEX_DEF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compress/compression_kind.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace capd {

class ColumnBlock;

// Simple single-column range/equality filter used for partial indexes.
enum class FilterOp : uint8_t { kEq, kLt, kLe, kGt, kGe, kBetween };

struct ColumnFilter {
  std::string column;
  FilterOp op = FilterOp::kEq;
  Value lo;  // operand; for kBetween the lower bound
  Value hi;  // upper bound (kBetween only)

  bool Matches(const Row& row, const Schema& schema) const;
  // Matches for the row whose cell in this filter's column is row `r` of
  // `block`'s column `c`, tested on that typed cell alone.
  bool MatchesCell(const ColumnBlock& block, size_t c, uint64_t r) const;
  // Report form: doubles print with six decimals (Value::ToString).
  std::string ToString() const;
  // ToString, except that a double literal prints its shortest round-trip
  // digits, so distinct filters never share a key. Signatures and MV
  // predicate matching compare filters by it.
  std::string Key() const;
};

struct IndexDef {
  std::string object;  // base table or MV name
  std::vector<std::string> key_columns;
  std::vector<std::string> include_columns;
  bool clustered = false;
  CompressionKind compression = CompressionKind::kNone;
  std::optional<ColumnFilter> filter;  // partial index predicate

  // All columns physically stored: for clustered indexes every table column;
  // otherwise keys + includes. Never the row locator (see StoredSchema).
  std::vector<std::string> StoredColumns(const Schema& base_schema) const;
  // Whether StoredColumns(base_schema) contains `column`, without building
  // it: a key column, else any base column if clustered, else an include.
  bool Stores(const Schema& base_schema, const std::string& column) const;

  // Schema of the physically stored rows: the StoredColumns, plus an
  // implicit 8-byte row locator last for secondary (non-clustered) indexes.
  Schema StoredSchema(const Schema& base_schema) const;

  // Whether the compressed codecs can store this structure: no stored
  // column is wider than their field limit (kMaxNsFieldWidth). A structure
  // that fails this may only be built uncompressed.
  bool CompressionFits(const Schema& base_schema) const;

  // The same index with a different compression method.
  IndexDef WithCompression(CompressionKind kind) const;

  // Identity ignoring compression: same object/keys/includes/clustered/
  // filter. Used by candidate bookkeeping.
  std::string StructureSignature() const;
  // Full identity including compression.
  std::string Signature() const;

  std::string ToString() const;

  bool operator==(const IndexDef& other) const {
    return Signature() == other.Signature();
  }
};

}  // namespace capd

#endif  // CAPD_INDEX_INDEX_DEF_H_
