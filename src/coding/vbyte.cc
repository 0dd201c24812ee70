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

}  // namespace cafe::coding
