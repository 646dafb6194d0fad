// Plain bit vector with a two-level rank directory: superblocks of 512 bits
// carry absolute 1-bit counts, 64-bit blocks carry counts relative to their
// superblock. Rank1 is O(1) (two table reads + one masked popcount); Select1
// is O(log) via binary search over the superblock directory followed by an
// in-superblock scan. This is the query backbone of the BITMAP candidate
// structure (src/succinct/bitmap_codec.*): per-distinct-value compressed
// bitmaps decode into BitVectors and are probed through Rank1/Select1.
#ifndef CAPD_SUCCINCT_BIT_VECTOR_H_
#define CAPD_SUCCINCT_BIT_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace capd {

class BitVector {
 public:
  BitVector() = default;

  // Append bits (LSB-first within the backing words). Appending after
  // Finish() aborts.
  void AppendBit(bool bit);
  void AppendRun(bool bit, uint64_t count);

  // Builds the rank directory. Idempotent; required before Rank1/Select1.
  void Finish();

  size_t size() const { return bits_; }
  bool Get(size_t i) const;
  size_t num_ones() const;

  // Number of 1-bits in [0, i). i may equal size(). Requires Finish().
  size_t Rank1(size_t i) const;

  // Position of the k-th (0-based) set bit. Requires k < num_ones() and
  // Finish().
  size_t Select1(size_t k) const;

  // Bytes held by the rank directory (the succinct-overhead figure the
  // micro bench reports).
  size_t DirectoryBytes() const;

  static constexpr size_t kBitsPerWord = 64;
  static constexpr size_t kWordsPerSuperblock = 8;  // 512 bits
  static constexpr size_t kBitsPerSuperblock =
      kBitsPerWord * kWordsPerSuperblock;

 private:
  std::vector<uint64_t> words_;
  size_t bits_ = 0;
  bool finished_ = false;
  // Directory: ones before superblock s / ones before word w within its
  // superblock (<= 448, fits uint16).
  std::vector<uint64_t> super_;
  std::vector<uint16_t> block_;
};

}  // namespace capd

#endif  // CAPD_SUCCINCT_BIT_VECTOR_H_
