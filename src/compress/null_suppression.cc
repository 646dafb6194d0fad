#include "compress/null_suppression.h"

#include <cstring>

#include "common/logging.h"

namespace capd {

size_t CountLeadingZeros(std::string_view field) {
  const char* p = field.data();
  const size_t n = field.size();
  size_t k = 0;
#if defined(__GNUC__) || defined(__clang__)
  // 8 bytes per step: the first nonzero byte's position inside a word is
  // ctz/8 on little-endian (the front of the field is the word's low byte
  // after an unaligned load) and clz/8 on big-endian.
  while (k + 8 <= n) {
    uint64_t word;
    std::memcpy(&word, p + k, 8);
    if (word != 0) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      return k + (static_cast<size_t>(__builtin_clzll(word)) >> 3);
#else
      return k + (static_cast<size_t>(__builtin_ctzll(word)) >> 3);
#endif
    }
    k += 8;
  }
#endif
  while (k < n && p[k] == '\0') ++k;
  return k;
}

void NsCompressField(std::string_view field, std::string* out) {
  CAPD_CHECK_LE(field.size(), kMaxNsFieldWidth);
  const size_t k = CountLeadingZeros(field);
  out->push_back(static_cast<char>(k));
  out->append(field.data() + k, field.size() - k);
}

size_t NsFieldSize(std::string_view field) {
  CAPD_CHECK_LE(field.size(), kMaxNsFieldWidth);
  return 1 + field.size() - CountLeadingZeros(field);
}

void NsDecompressField(std::string_view data, size_t* offset, uint32_t width,
                       std::string* out) {
  CAPD_CHECK_LE(width, kMaxNsFieldWidth);
  CAPD_CHECK_LT(*offset, data.size());
  const size_t k = static_cast<uint8_t>(data[(*offset)++]);
  CAPD_CHECK_LE(k, width);
  const size_t rest = width - k;
  CAPD_CHECK_LE(*offset + rest, data.size());
  out->append(k, '\0');
  out->append(data.data() + *offset, rest);
  *offset += rest;
}

}  // namespace capd
