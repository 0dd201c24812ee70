#include "seqstore/packed_scan_simd.h"

#include "util/check.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CAFE_PACKED_SCAN_X86 1
#endif

namespace cafe {
namespace {

#if defined(CAFE_PACKED_SCAN_X86)

// Counts mismatching base pairs across 16 bytes (64 bases): a is
// byte-aligned, b is spliced from two overlapping loads when shift != 0.
// The flag math is the scalar MismatchFlags verbatim, per byte lane:
//   x = a ^ b;  flags = (x | x >> 1) & 0x55...;  popcount(flags)
__attribute__((target("sse2"))) size_t PackedScanSse2(const uint8_t* a,
                                                      const uint8_t* b,
                                                      int shift,
                                                      size_t nbytes) {
  const __m128i pair_low = _mm_set1_epi8(0x55);
  const __m128i low7 = _mm_set1_epi8(0x7F);
  const __m128i hi_keep = _mm_set1_epi8(static_cast<char>(0xFF << shift));
  const __m128i lo_keep = _mm_set1_epi8(static_cast<char>((1 << shift) - 1));
  size_t mismatches = 0;
  for (size_t i = 0; i < nbytes; i += 16) {
    __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb;
    if (shift == 0) {
      vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    } else {
      // Per-byte shifts emulated with 16-bit shifts + byte masks (the
      // bits that crossed a byte boundary inside the 16-bit lane are
      // masked off).
      __m128i b1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
      __m128i b2 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i + 1));
      __m128i hi = _mm_and_si128(_mm_slli_epi16(b1, shift), hi_keep);
      __m128i lo = _mm_and_si128(_mm_srli_epi16(b2, 8 - shift), lo_keep);
      vb = _mm_or_si128(hi, lo);
    }
    __m128i x = _mm_xor_si128(va, vb);
    __m128i x1 = _mm_and_si128(_mm_srli_epi16(x, 1), low7);
    __m128i ne = _mm_and_si128(_mm_or_si128(x, x1), pair_low);
    alignas(16) uint64_t words[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(words), ne);
    mismatches += static_cast<size_t>(__builtin_popcountll(words[0])) +
                  static_cast<size_t>(__builtin_popcountll(words[1]));
  }
  return mismatches;
}

// Same kernel at 256-bit width: 32 bytes (128 bases) per step.
__attribute__((target("avx2,popcnt"))) size_t PackedScanAvx2(
    const uint8_t* a, const uint8_t* b, int shift, size_t nbytes) {
  const __m256i pair_low = _mm256_set1_epi8(0x55);
  const __m256i low7 = _mm256_set1_epi8(0x7F);
  const __m256i hi_keep = _mm256_set1_epi8(static_cast<char>(0xFF << shift));
  const __m256i lo_keep =
      _mm256_set1_epi8(static_cast<char>((1 << shift) - 1));
  size_t mismatches = 0;
  for (size_t i = 0; i < nbytes; i += 32) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb;
    if (shift == 0) {
      vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    } else {
      __m256i b1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      __m256i b2 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 1));
      __m256i hi = _mm256_and_si256(_mm256_slli_epi16(b1, shift), hi_keep);
      __m256i lo =
          _mm256_and_si256(_mm256_srli_epi16(b2, 8 - shift), lo_keep);
      vb = _mm256_or_si256(hi, lo);
    }
    __m256i x = _mm256_xor_si256(va, vb);
    __m256i x1 = _mm256_and_si256(_mm256_srli_epi16(x, 1), low7);
    __m256i ne = _mm256_and_si256(_mm256_or_si256(x, x1), pair_low);
    alignas(32) uint64_t words[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(words), ne);
    mismatches += static_cast<size_t>(__builtin_popcountll(words[0])) +
                  static_cast<size_t>(__builtin_popcountll(words[1])) +
                  static_cast<size_t>(__builtin_popcountll(words[2])) +
                  static_cast<size_t>(__builtin_popcountll(words[3]));
  }
  return mismatches;
}

#endif  // CAFE_PACKED_SCAN_X86

}  // namespace

size_t PackedBulkMismatches(const uint8_t* a, const uint8_t* b, int shift,
                            size_t nbytes, SimdLevel level,
                            size_t* bytes_done) {
  CAFE_DCHECK_EQ(shift % 2, 0);
  CAFE_DCHECK_LT(shift, 8);
#if defined(CAFE_PACKED_SCAN_X86)
  if (level >= SimdLevel::kAvx2) {
    size_t blocked = nbytes & ~size_t{31};
    if (blocked != 0) {
      *bytes_done = blocked;
      return PackedScanAvx2(a, b, shift, blocked);
    }
  }
  if (level >= SimdLevel::kSse2) {
    size_t blocked = nbytes & ~size_t{15};
    if (blocked != 0) {
      *bytes_done = blocked;
      return PackedScanSse2(a, b, shift, blocked);
    }
  }
#else
  (void)a;
  (void)b;
  (void)shift;
  (void)nbytes;
  (void)level;
#endif
  *bytes_done = 0;
  return 0;
}

}  // namespace cafe
