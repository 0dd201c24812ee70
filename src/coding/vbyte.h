// Variable-byte code: seven payload bits per byte, high bit set on the
// terminating byte. Byte-aligned, so decode is branch-cheap; compression is
// coarser than the bit-aligned codes. Included as the "engineering
// baseline" the compressed-integer literature compares against. The
// file formats write the same code byte by byte (coding/byte_io.h).

#ifndef CAFE_CODING_VBYTE_H_
#define CAFE_CODING_VBYTE_H_

#include <cstdint>

#include "util/bitio.h"

namespace cafe::coding {

/// Encodes v >= 1 (7 bits per emitted byte). Works at any bit offset since
/// it writes whole 8-bit groups through the bit stream.
void EncodeVByte(BitWriter* w, uint64_t v);

/// Decodes one vbyte value.
uint64_t DecodeVByte(BitReader* r);

/// Bits EncodeVByte emits for v (always a multiple of 8).
uint64_t VByteBits(uint64_t v);

}  // namespace cafe::coding

#endif  // CAFE_CODING_VBYTE_H_
