#include "coding/vbyte.h"

#include "util/check.h"

namespace cafe::coding {

void EncodeVByte(BitWriter* w, uint64_t v) {
  CAFE_DCHECK(v >= 1);
  uint64_t x = v - 1;
  while (x >= 128) {
    w->WriteBits(x & 0x7F, 8);  // continuation: high bit clear
    x >>= 7;
  }
  w->WriteBits(x | 0x80, 8);  // terminator: high bit set
}

uint64_t DecodeVByte(BitReader* r) {
  uint64_t x = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t byte = r->ReadBits(8);
    x |= (byte & 0x7F) << shift;
    if (byte & 0x80) break;
    shift += 7;
  }
  return x + 1;
}

uint64_t VByteBits(uint64_t v) {
  CAFE_DCHECK(v >= 1);
  uint64_t x = v - 1;
  uint64_t bytes = 1;
  while (x >= 128) {
    x >>= 7;
    ++bytes;
  }
  return bytes * 8;
}

void AppendVByte(std::vector<uint8_t>* out, uint64_t v) {
  CAFE_DCHECK(v >= 1);
  uint64_t x = v - 1;
  while (x >= 128) {
    out->push_back(static_cast<uint8_t>(x & 0x7F));
    x >>= 7;
  }
  out->push_back(static_cast<uint8_t>(x | 0x80));
}

uint64_t ReadVByte(const uint8_t* data, size_t size, size_t* pos) {
  uint64_t x = 0;
  int shift = 0;
  // Ten 7-bit groups cover 64 bits; like DecodeVByte, stop there so a
  // run of continuation bytes cannot shift past the word.
  for (int i = 0; i < 10 && *pos < size; ++i) {
    uint8_t byte = data[(*pos)++];
    x |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if (byte & 0x80) return x + 1;
    shift += 7;
  }
  return x + 1;  // truncated or overlong input; callers validate sizes
}

}  // namespace cafe::coding
