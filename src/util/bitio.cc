#include "util/bitio.h"

#include "util/check.h"

namespace cafe {

void BitWriter::FlushAcc() {
  while (acc_bits_ >= 8) {
    buf_.push_back(static_cast<uint8_t>(acc_ >> (acc_bits_ - 8)));
    acc_bits_ -= 8;
  }
  acc_ &= (acc_bits_ == 0) ? 0 : ((uint64_t{1} << acc_bits_) - 1);
}

void BitWriter::WriteBits(uint64_t value, int nbits) {
  CAFE_DCHECK_GE(nbits, 0);
  CAFE_DCHECK_LE(nbits, 64);
  if (nbits == 0) return;
  if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
  bit_count_ += static_cast<size_t>(nbits);
  // Write in chunks so acc_ never holds more than 63 live bits.
  while (nbits > 56 - acc_bits_) {
    int take = 56 - acc_bits_;
    if (take <= 0) {
      FlushAcc();
      continue;
    }
    acc_ = (acc_ << take) | (value >> (nbits - take));
    acc_bits_ += take;
    nbits -= take;
    if (nbits < 64) value &= (uint64_t{1} << nbits) - 1;
    FlushAcc();
  }
  acc_ = (acc_ << nbits) | value;
  acc_bits_ += nbits;
  FlushAcc();
}

void BitWriter::WriteUnary(uint64_t count) {
  while (count >= 32) {
    WriteBits(0, 32);
    count -= 32;
  }
  // `count` zero bits followed by a one bit.
  WriteBits(1, static_cast<int>(count) + 1);
}

void BitWriter::AlignToByte() {
  int rem = static_cast<int>(bit_count_ % 8);
  if (rem != 0) WriteBits(0, 8 - rem);
}

std::vector<uint8_t> BitWriter::Finish() {
  AlignToByte();
  CAFE_DCHECK_EQ(acc_bits_, 0);
  std::vector<uint8_t> out;
  out.swap(buf_);
  bit_count_ = 0;
  acc_ = 0;
  acc_bits_ = 0;
  return out;
}

void BitWriter::Clear() {
  buf_.clear();
  acc_ = 0;
  acc_bits_ = 0;
  bit_count_ = 0;
}

uint64_t BitReader::ReadBits(int nbits) {
  CAFE_DCHECK_GE(nbits, 0);
  CAFE_DCHECK_LE(nbits, 64);
  if (nbits == 0) return 0;
  if (pos_ + static_cast<size_t>(nbits) > size_bits_) {
    overflowed_ = true;
    pos_ = size_bits_;
    return 0;
  }
  uint64_t out = 0;
  int remaining = nbits;
  while (remaining > 0) {
    size_t byte_index = pos_ >> 3;
    int bit_offset = static_cast<int>(pos_ & 7);
    int avail = 8 - bit_offset;
    int take = remaining < avail ? remaining : avail;
    uint8_t byte = data_[byte_index];
    uint8_t chunk =
        static_cast<uint8_t>(byte >> (avail - take)) &
        static_cast<uint8_t>((1u << take) - 1);
    out = (out << take) | chunk;
    pos_ += static_cast<size_t>(take);
    remaining -= take;
  }
  return out;
}

uint64_t BitReader::ReadUnary() {
  uint64_t count = 0;
  // A byte at a time from any bit offset: shifting out the bits already
  // read leaves the unread ones at the top, zeros below them.
  while (pos_ < size_bits_) {
    const int offset = static_cast<int>(pos_ & 7);
    const auto byte = static_cast<uint8_t>(data_[pos_ >> 3] << offset);
    if (byte == 0) {
      count += static_cast<uint64_t>(8 - offset);
      pos_ += static_cast<size_t>(8 - offset);
      continue;
    }
    // Position of the highest set bit, from the MSB side.
    const int lead = __builtin_clz(byte) - 24;
    count += static_cast<uint64_t>(lead);
    pos_ += static_cast<size_t>(lead) + 1;
    return count;
  }
  overflowed_ = true;
  return count;
}

void BitReader::AlignToByte() {
  size_t rem = pos_ % 8;
  if (rem != 0) pos_ += 8 - rem;
  if (pos_ > size_bits_) {
    pos_ = size_bits_;
    overflowed_ = true;
  }
}

void BitReader::SeekToBit(size_t bit) {
  if (bit > size_bits_) {
    pos_ = size_bits_;
    overflowed_ = true;
    return;
  }
  pos_ = bit;
}

}  // namespace cafe
