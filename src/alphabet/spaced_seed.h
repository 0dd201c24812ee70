// Spaced seeds: extraction patterns with "don't care" gaps.
//
// A contiguous interval of length n demands n consecutive matching
// bases; a single substitution destroys n overlapping intervals at
// once. A spaced seed keeps the same number of *care* positions (the
// weight, so term width and vocabulary are unchanged) but spreads them
// over a longer window, e.g. "1101101101101101" — mismatches at
// don't-care positions cost nothing, which is why spaced seeds hold
// sensitivity at the same k (PatternHunter; and the positional-index
// DNA engines of arXiv:1307.0194 / arXiv:1006.4114).
//
// A pattern is a string of '1' (care) and '0' (don't care). It must
// start and end with '1' (leading/trailing zeros only shift windows).
// The all-ones pattern of length n extracts exactly the same terms at
// the same positions as ForEachInterval(seq, n, stride, fn).

#ifndef CAFE_ALPHABET_SPACED_SEED_H_
#define CAFE_ALPHABET_SPACED_SEED_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alphabet/nucleotide.h"
#include "util/status.h"

namespace cafe {

/// Inclusive bounds on the seed weight (number of care positions).
/// The weight plays the interval length's role — terms are 2*weight
/// bits — so these mirror kMin/MaxIntervalLength in index/interval.h.
inline constexpr int kMinSeedWeight = 4;
inline constexpr int kMaxSeedWeight = 16;

/// Upper bound on the window width (pattern length). Keeps windows
/// cheap to scan and the span serializable as a single byte.
inline constexpr int kMaxSeedSpan = 64;

/// A parsed, validated spaced-seed pattern.
class SpacedSeed {
 public:
  /// Parses a '1'/'0' pattern string. Fails unless the pattern starts
  /// and ends with '1', its weight is in [kMinSeedWeight,
  /// kMaxSeedWeight], and its span is at most kMaxSeedSpan.
  [[nodiscard]] static Result<SpacedSeed> Parse(std::string_view pattern);

  const std::string& pattern() const { return pattern_; }
  /// Window width (pattern length).
  int span() const { return static_cast<int>(pattern_.size()); }
  /// Number of care positions; terms are 2*weight() bits wide.
  int weight() const { return static_cast<int>(care_.size()); }
  /// Offsets of the care positions within the window, ascending.
  const std::vector<uint8_t>& care_offsets() const { return care_; }

  /// Encodes the window starting at window[0]: the care-position bases
  /// packed MSB-first into a 2*weight()-bit term. Returns -1 when any
  /// care position holds a non-base (wildcard) character or the window
  /// does not fit. Don't-care positions may hold anything.
  int64_t Encode(std::string_view window) const {
    if (window.size() < pattern_.size()) return -1;
    uint32_t term = 0;
    for (uint8_t offset : care_) {
      int code = BaseToCode(window[offset]);
      if (code < 0) return -1;
      term = (term << 2) | static_cast<uint32_t>(code);
    }
    return term;
  }

 private:
  SpacedSeed() = default;

  std::string pattern_;
  std::vector<uint8_t> care_;
};

/// Calls `fn(position, term)` for every window of `seed` at positions
/// 0, stride, 2*stride, ... whose care positions are all unambiguous
/// bases. Matches ForEachInterval's contract: `position` is the window
/// start, terms are 2*weight-bit codes, wildcard-blocked windows are
/// skipped.
template <typename Fn>
void ForEachSpacedSeed(std::string_view seq, const SpacedSeed& seed,
                       uint32_t stride, Fn&& fn) {
  const size_t span = static_cast<size_t>(seed.span());
  if (stride == 0 || seq.size() < span) return;
  const size_t last = seq.size() - span;
  for (size_t start = 0; start <= last; start += stride) {
    int64_t term = seed.Encode(seq.substr(start));
    if (term >= 0) {
      fn(static_cast<uint32_t>(start), static_cast<uint32_t>(term));
    }
  }
}

}  // namespace cafe

#endif  // CAFE_ALPHABET_SPACED_SEED_H_
