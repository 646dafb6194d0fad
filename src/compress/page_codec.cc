#include "compress/page_codec.h"

#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "compress/null_suppression.h"
#include "compress/varint.h"
#include "storage/schema.h"

namespace capd {
namespace {

// Longest common prefix (in bytes) of a column's values within the span.
size_t CommonPrefixLen(const FlatSpan& span, size_t col) {
  const size_t n = span.num_rows();
  if (n == 0) return 0;
  const FieldView anchor = span.field(0, col);
  size_t len = anchor.size();
  for (size_t i = 1; i < n && len > 0; ++i) {
    const FieldView v = span.field(i, col);
    size_t k = 0;
    while (k < len && v[k] == anchor[k]) ++k;
    len = k;
  }
  return len;
}

// Per-column compression plan, shared between CompressPage and MeasurePage
// so the two can never disagree on a byte. Keys are views into the span's
// arena: counting, id assignment and per-cell probing all run on interned
// slices without copying a field.
struct ColumnPlan {
  size_t anchor_len = 0;
  // remainder -> dictionary id + 1 for repeated values, 0 for literals.
  // std::map gives deterministic (lexicographic) entry order.
  std::map<FieldView, uint32_t> code;
  std::vector<FieldView> dict;  // dictionary entries in id order

  ColumnPlan(const FlatSpan& span, size_t col) {
    anchor_len = CommonPrefixLen(span, col);
    const size_t n = span.num_rows();
    for (size_t i = 0; i < n; ++i) {
      ++code[span.field(i, col).substr(anchor_len)];  // count occurrences
    }
    // Values occurring >= 2 times go to the local dictionary; the rest are
    // stored literally (code 0).
    for (auto& [rem, entry] : code) {
      if (entry >= 2) {
        dict.push_back(rem);
        entry = static_cast<uint32_t>(dict.size());  // id + 1
      } else {
        entry = 0;
      }
    }
  }
};

// A column's cells with their occurrence counts: open addressing over
// FieldViews (views into the page arena) with linear probing, doubling
// whenever it would pass half full. Nothing is allocated per cell.
class CellCounts {
 public:
  // Counts one more occurrence of v; returns its count so far.
  uint32_t Add(FieldView v) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Slot& slot = Find(v);
    if (slot.count == 0) {
      slot.key = v;
      ++size_;
    }
    return ++slot.count;
  }

  // Occurrences of v, which has been added.
  uint32_t count(FieldView v) { return Find(v).count; }

  // fn(key, count) for every distinct cell, in table order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& slot : slots_) {
      if (slot.count > 0) fn(slot.key, slot.count);
    }
  }

 private:
  struct Slot {
    FieldView key;
    uint32_t count = 0;  // 0 marks an empty slot
  };

  Slot& Find(FieldView v) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = std::hash<FieldView>()(v) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.count == 0 || slot.key == v) return slot;
    }
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.count > 0) Find(slot.key) = slot;
    }
  }

  std::vector<Slot> slots_;  // size 0 or a power of two
  size_t size_ = 0;
};

// Incremental twin of ColumnPlan for FitRows: the exact byte size of one
// column's section over a run of rows that grows one cell at a time. With
// A the anchor length, D the dictionary size, S the NS bytes of every
// distinct remainder (each is stored once, as a dictionary entry or as its
// single literal) and k the cells, each paying a one-byte code:
//   bytes = VarintSize(A) + A + VarintSize(D) + S + k + wide_codes
// where wide_codes counts the second code byte of cells whose dictionary id
// is >= 127 (code >= 128). Values are keyed by the full field: all of them
// share the anchor, so field order is remainder order and the keys survive
// anchor shrinks. S is recounted when the anchor shrinks; the dictionary
// order is only tracked once D passes 127.
class ColumnFit {
 public:
  void Add(FieldView v) {
    if (cells_ == 0) {
      anchor_ = v;
      anchor_len_ = v.size();
    }
    size_t common = 0;
    while (common < anchor_len_ && v[common] == anchor_[common]) ++common;
    const bool shrunk = common < anchor_len_;
    anchor_len_ = common;
    ++cells_;
    const uint32_t count = counts_.Add(v);
    if (count == 1 && !shrunk) {
      ns_bytes_ += NsFieldSize(v.substr(anchor_len_));
    } else if (count == 2) {
      AddDictEntry(v);
    } else if (count > 2 && dict_size_ > kOneByteCodes && !(v < *pivot_)) {
      ++wide_codes_;
    }
    if (shrunk) {
      ns_bytes_ = 0;
      counts_.ForEach([this](FieldView key, uint32_t) {
        ns_bytes_ += NsFieldSize(key.substr(anchor_len_));
      });
    }
  }

  uint64_t bytes() const {
    return VarintSize(anchor_len_) + anchor_len_ + VarintSize(dict_size_) +
           ns_bytes_ + cells_ + wide_codes_;
  }

 private:
  // Dictionary ids 0..126 encode as one-byte codes 1..127.
  static constexpr size_t kOneByteCodes = 127;

  void AddDictEntry(FieldView v) {
    ++dict_size_;
    if (dict_size_ <= kOneByteCodes) return;
    if (dict_size_ == kOneByteCodes + 1) {
      // First two-byte code: lay out the dictionary order once. The new
      // entry set is exactly the counted cells seen at least twice.
      counts_.ForEach([this](FieldView key, uint32_t count) {
        if (count >= 2) dict_.insert(key);
      });
      pivot_ = std::prev(dict_.end());
      wide_codes_ = counts_.count(*pivot_);
      return;
    }
    dict_.insert(v);
    if (v < *pivot_) {
      // Every entry after v moves up one id: the entry just below the old
      // pivot crosses to id 127.
      --pivot_;
      wide_codes_ += counts_.count(*pivot_);
    } else {
      wide_codes_ += 2;
    }
  }

  FieldView anchor_;  // the first cell; the anchor is its prefix
  size_t anchor_len_ = 0;
  uint64_t cells_ = 0;
  uint64_t ns_bytes_ = 0;
  size_t dict_size_ = 0;
  uint64_t wide_codes_ = 0;
  CellCounts counts_;
  std::set<FieldView> dict_;             // id order, once D > 127
  std::set<FieldView>::iterator pivot_;  // the entry with id 127
};

// The incremental sizes track codes of up to two bytes (dictionary ids
// below 16383). A third byte needs >= 16384 entries, hence >= 32768 cells
// of one code byte each: no page under this capacity ever holds one.
constexpr uint64_t kIncrementalFitCapacity = 32768;
static_assert(kPageCapacity < kIncrementalFitCapacity,
              "PackPages' capacity must stay within PAGE's FitRows limit");

}  // namespace

// Blob layout:
//   varint n_rows
//   for each column:
//     varint anchor_len, anchor bytes
//     varint dict_count, dict entries (each: NS of the post-anchor remainder)
//     n_rows cells: varint code; code==0 -> literal NS remainder follows,
//                   code>=1  -> dictionary entry code-1.
std::string PageCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  std::string blob;
  const size_t n = span.num_rows();
  PutVarint(n, &blob);
  for (size_t c = 0; c < num_columns(); ++c) {
    const ColumnPlan plan(span, c);
    PutVarint(plan.anchor_len, &blob);
    if (n > 0) blob.append(span.field(0, c).data(), plan.anchor_len);

    PutVarint(plan.dict.size(), &blob);
    for (const FieldView rem : plan.dict) NsCompressField(rem, &blob);

    for (size_t i = 0; i < n; ++i) {
      const FieldView rem = span.field(i, c).substr(plan.anchor_len);
      const uint32_t code = plan.code.find(rem)->second;
      PutVarint(code, &blob);
      if (code == 0) NsCompressField(rem, &blob);
    }
  }
  return blob;
}

uint64_t PageCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  uint64_t total = VarintSize(n);
  for (size_t c = 0; c < num_columns(); ++c) {
    const ColumnPlan plan(span, c);
    total += VarintSize(plan.anchor_len) + plan.anchor_len;
    total += VarintSize(plan.dict.size());
    for (const FieldView rem : plan.dict) total += NsFieldSize(rem);

    for (size_t i = 0; i < n; ++i) {
      const FieldView rem = span.field(i, c).substr(plan.anchor_len);
      const uint32_t code = plan.code.find(rem)->second;
      total += VarintSize(code);
      if (code == 0) total += NsFieldSize(rem);
    }
  }
  return total;
}

PageFit PageCodec::FitRows(const FlatPage& page, size_t begin,
                           uint64_t capacity) const {
  CAPD_CHECK_LT(capacity, kIncrementalFitCapacity);
  ValidateSpan(page.span());
  const size_t n = page.num_rows();
  CAPD_CHECK_LT(begin, n);
  std::vector<ColumnFit> columns(num_columns());
  PageFit fit;
  for (size_t r = begin; r < n; ++r) {
    uint64_t bytes = VarintSize(fit.rows + 1);
    for (size_t c = 0; c < columns.size(); ++c) {
      columns[c].Add(page.field(r, c));
      bytes += columns[c].bytes();
    }
    if (fit.rows > 0 && bytes > capacity) break;
    fit.rows += 1;
    fit.bytes = bytes;
  }
  return fit;
}

FlatPage PageCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page(widths_, n);
  std::vector<std::string> dict;  // reused across columns
  std::string field;              // one cell: anchor + remainder
  for (size_t c = 0; c < num_columns(); ++c) {
    const uint64_t anchor_len = GetVarint(blob, &offset);
    CAPD_CHECK_LE(offset + anchor_len, blob.size());
    const std::string_view anchor = blob.substr(offset, anchor_len);
    offset += anchor_len;
    const uint32_t rem_width = widths_[c] - static_cast<uint32_t>(anchor_len);

    const uint64_t dict_count = GetVarint(blob, &offset);
    dict.clear();
    dict.reserve(dict_count);
    for (uint64_t d = 0; d < dict_count; ++d) {
      std::string rem;
      rem.reserve(rem_width);
      NsDecompressField(blob, &offset, rem_width, &rem);
      dict.push_back(std::move(rem));
    }

    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t code = GetVarint(blob, &offset);
      field.assign(anchor);
      if (code == 0) {
        NsDecompressField(blob, &offset, rem_width, &field);
      } else {
        CAPD_CHECK_LE(code, dict.size());
        field.append(dict[code - 1]);
      }
      page.SetField(i, c, field);
    }
  }
  return page;
}

}  // namespace capd
