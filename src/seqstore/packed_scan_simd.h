// Vectorized bulk comparison of 2-bit packed base streams.
//
// PackedMatchCount's scalar kernel compares 32 bases per 64-bit load;
// these kernels widen that to 128-bit (SSE2, 64 bases/step) and 256-bit
// (AVX2, 128 bases/step) lanes. The contract is byte-granular: the
// caller aligns stream `a` to a byte boundary (4 bases) and passes
// stream `b` as a byte pointer plus a sub-byte bit shift, exactly the
// shift-extract idiom of the scalar LoadShifted splice:
//
//   b_aligned[i] = (b[i] << shift) | (b[i + 1] >> (8 - shift))
//
// so when shift != 0 the kernels read one byte past `b + nbytes - 1`
// (the caller guarantees it is in range — see PackedMatchCount).
// Mismatch flags and popcounts are the same pair-low trick as the
// scalar path, just 16 or 32 bytes at a time.
//
// Dispatch: PackedBulkMismatches picks the widest kernel allowed by
// `level`, consumes as many whole vector blocks as fit, and reports how
// many bytes it processed; the scalar word loop in packed_view.cc
// finishes the tail. Forcing `level` (CAFE_SIMD_LEVEL, or the explicit
// PackedMatchCount overload) must never change any count — the oracle
// tests in tests/packed_scan_simd_test.cc hold every tier to that.

#ifndef CAFE_SEQSTORE_PACKED_SCAN_SIMD_H_
#define CAFE_SEQSTORE_PACKED_SCAN_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace cafe {

/// Counts mismatching bases between the byte-aligned stream `a` and the
/// bit-shifted stream `b` over the widest whole vector blocks `level`
/// allows (32-byte blocks for AVX2, 16 for SSE2). `shift` is the bit
/// offset of b's first base within `b[0]` (0, 2, 4, or 6). Sets
/// `*bytes_done` to the number of bytes actually compared (a multiple
/// of the block size; 0 when `level` is scalar or `nbytes` is under one
/// block) — the caller handles the remainder. When `shift != 0` the
/// kernels read `b[*bytes_done]` (one byte beyond the compared range);
/// the caller must guarantee that byte exists.
size_t PackedBulkMismatches(const uint8_t* a, const uint8_t* b, int shift,
                            size_t nbytes, SimdLevel level,
                            size_t* bytes_done);

}  // namespace cafe

#endif  // CAFE_SEQSTORE_PACKED_SCAN_SIMD_H_
