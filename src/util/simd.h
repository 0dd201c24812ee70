// Runtime SIMD dispatch tiers.
//
// Every vectorized kernel in the tree (the PCLMULQDQ CRC sweep and the
// striped Smith-Waterman) keeps its scalar implementation as the
// reference oracle and selects the widest tier the CPU supports at
// runtime. `CAFE_SIMD_LEVEL` caps the tier from the environment
// (`scalar` | `sse2` | `avx2`) so tests and CI can force every path
// onto the same inputs; see docs/PERFORMANCE.md for the tier table and
// the forcing recipe.
//
// ActiveSimdLevel() is computed once (cpuid + env) and cached; the test
// override in `internal` exists because the env is read only once —
// per-test setenv would silently not apply.

#ifndef CAFE_UTIL_SIMD_H_
#define CAFE_UTIL_SIMD_H_

namespace cafe {

/// Dispatch tiers, widest last. Comparison order is meaningful:
/// a kernel compiled for tier T may run iff ActiveSimdLevel() >= T.
enum class SimdLevel : int {
  kScalar = 0,  // portable reference path, always available
  kSse2 = 1,    // 128-bit lanes (baseline on x86-64)
  kAvx2 = 2,    // 256-bit lanes
};

/// Lowercase tier name ("scalar", "sse2", "avx2") — the exact spelling
/// CAFE_SIMD_LEVEL accepts.
const char* SimdLevelName(SimdLevel level);

/// Parses a CAFE_SIMD_LEVEL value. Returns false (and leaves *out
/// untouched) on anything but the three canonical names.
bool ParseSimdLevel(const char* text, SimdLevel* out);

/// Widest tier this CPU supports, ignoring the environment.
SimdLevel DetectCpuSimdLevel();

/// The tier kernels actually dispatch on: min(DetectCpuSimdLevel(),
/// CAFE_SIMD_LEVEL). Computed once and cached; an unparseable env value
/// is ignored (full CPU tier).
SimdLevel ActiveSimdLevel();

namespace internal {

/// Overrides ActiveSimdLevel() for the calling process (all threads)
/// until Reset, clamped to DetectCpuSimdLevel(). Test-only: lets one
/// binary exercise every dispatch tier without re-exec'ing under
/// different environments.
void SetActiveSimdLevelForTest(SimdLevel level);
void ResetActiveSimdLevelForTest();

}  // namespace internal

}  // namespace cafe

#endif  // CAFE_UTIL_SIMD_H_
