// Null-suppression primitives: a fixed-width field with k leading 0x00 bytes
// is stored as a one-byte count plus the remaining width-k bytes — the
// paper's "00000abc" -> "@5abc" transform. Shared by the ROW codec and as
// the innermost stage of the PAGE and RLE codecs. The one-byte count caps
// the supported field width at 255 bytes; every entry point CHECKs it.
#ifndef CAPD_COMPRESS_NULL_SUPPRESSION_H_
#define CAPD_COMPRESS_NULL_SUPPRESSION_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace capd {

// Widest field the one-byte count can describe.
inline constexpr uint32_t kMaxNsFieldWidth = 255;

// Number of leading 0x00 bytes. SWAR kernel: scans 8 bytes per step via
// unaligned 64-bit loads and finds the first nonzero byte with a single
// count-zeros instruction, with a scalar tail for the last <8 bytes.
size_t CountLeadingZeros(std::string_view field);

// Appends the NS form of `field` to *out. Field width must be <= 255.
void NsCompressField(std::string_view field, std::string* out);

// Size in bytes that NsCompressField would append (width <= 255 CHECKed).
size_t NsFieldSize(std::string_view field);

// Reads one NS field of original width `width` (<= 255) from data at
// *offset (advancing it) and appends the reconstructed fixed-width bytes
// to *out.
void NsDecompressField(std::string_view data, size_t* offset, uint32_t width,
                       std::string* out);

}  // namespace capd

#endif  // CAPD_COMPRESS_NULL_SUPPRESSION_H_
