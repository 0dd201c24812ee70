// Bit-level I/O over in-memory buffers.
//
// BitWriter appends bits MSB-first into a growable byte buffer; BitReader
// consumes them in the same order. These are the substrate for all the
// integer codes in coding/ and for the direct-coded sequence store.
//
// Reads past the end of the buffer set an overflow flag (and return zero
// bits) rather than invoking undefined behaviour; decoders check
// `overflowed()` once per list rather than per bit, which keeps the hot
// decode loops branch-light.

#ifndef CAFE_UTIL_BITIO_H_
#define CAFE_UTIL_BITIO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cafe {

/// Append-only MSB-first bit sink.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `nbits` bits of `value`, most significant first.
  /// `nbits` must be <= 64.
  void WriteBits(uint64_t value, int nbits);

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends `count` zero bits followed by a terminating one bit
  /// (the unary code for `count`).
  void WriteUnary(uint64_t count);

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Number of bits written so far.
  [[nodiscard]] size_t bit_count() const { return bit_count_; }

  /// Finishes (pads to a byte boundary) and returns the buffer.
  [[nodiscard]] std::vector<uint8_t> Finish();

  /// Read-only view of the bytes written so far, including a final
  /// partially-filled byte if any.
  [[nodiscard]] const std::vector<uint8_t>& bytes() const { return buf_; }

  void Clear();

 private:
  std::vector<uint8_t> buf_;
  uint64_t acc_ = 0;   // pending bits, left-aligned within `acc_bits_`
  int acc_bits_ = 0;   // number of pending bits in acc_ (< 8)
  size_t bit_count_ = 0;

  void FlushAcc();
};

/// MSB-first bit source over a caller-owned byte buffer.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}

  explicit BitReader(const std::vector<uint8_t>& data)
      : BitReader(data.data(), data.size()) {}

  /// Reads `nbits` bits (<= 64) and returns them right-aligned.
  /// Past-the-end reads return 0 and set the overflow flag.
  [[nodiscard]] uint64_t ReadBits(int nbits);

  /// Reads a unary code: the number of zero bits before the next one bit.
  [[nodiscard]] uint64_t ReadUnary();

  /// Skips ahead to the next byte boundary.
  void AlignToByte();

  /// True once any read has run past the end of the buffer.
  [[nodiscard]] bool overflowed() const { return overflowed_; }

  [[nodiscard]] size_t bit_position() const { return pos_; }
  [[nodiscard]] size_t size_bits() const { return size_bits_; }
  [[nodiscard]] size_t bits_remaining() const {
    return pos_ >= size_bits_ ? 0 : size_bits_ - pos_;
  }

  /// Repositions the read cursor (for random access into an encoded block).
  void SeekToBit(size_t bit);

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
  bool overflowed_ = false;
};

}  // namespace cafe

#endif  // CAFE_UTIL_BITIO_H_
