// Striped (Farrar) SIMD Smith-Waterman, score-only.
//
// In hit-count mode (no coarse diagonal to band around) the fine
// phase's dominant cost is Aligner::ScoreOnly over whole candidates;
// the diagonal pipeline runs the banded loop instead (banded.cc), and
// the exhaustive baseline runs this one. This is the Farrar 2007
// formulation of that exact recurrence: the query is laid out striped
// across 16-bit vector lanes (8 for SSE2, 16 for AVX2), a
// per-target-character query profile turns the substitution lookup
// into one vector load, and the vertical-gap
// dependency is resolved by Farrar's lazy-F loop (test-before-apply,
// so F chains propagate across stripe boundaries until no lane can
// still improve). Saturating 16-bit arithmetic clamps E/F at zero —
// exact for
// local alignment because H >= 0 always (scores this kernel returns are
// bit-identical to the scalar oracle; the tier tests enforce it).
//
// Scoring semantics are inherited wholesale: the profile is built from
// the same PairScoreTable the scalar loop reads, so IUPAC wildcard
// scoring, mismatch and match values all match by construction. Scores
// that would reach INT16_MAX saturate; Score() detects that and returns
// false so the caller reruns the 32-bit scalar oracle — the fallback is
// a correctness guarantee, not an approximation.
//
// Reentrancy: same contract as Aligner (scratch-per-instance). One
// StripedScorer lives inside each Aligner; distinct instances are safe
// concurrently, a single instance is not.

#ifndef CAFE_ALIGN_SW_SIMD_H_
#define CAFE_ALIGN_SW_SIMD_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "align/scoring.h"
#include "util/simd.h"

namespace cafe {

class PairScoreTable;

class StripedScorer {
 public:
  explicit StripedScorer(const ScoringScheme& scheme);

  /// True iff the striped kernels compute this scheme exactly: real
  /// Smith-Waterman penalties (ScoringScheme::Validate) whose gap costs
  /// fit the 16-bit saturating domain. Unsupported schemes always take
  /// the scalar oracle.
  static bool Supported(const ScoringScheme& scheme);

  /// Computes the best local alignment score of query vs target with
  /// the widest kernel `level` allows. Returns true and sets `*score`
  /// on success; returns false — caller must run the scalar oracle —
  /// when `level` is scalar (or the build has no x86 kernels), either
  /// sequence is empty, or the 16-bit score domain saturated.
  ///
  /// `table` must be the table built from the scheme this scorer was
  /// constructed with (the Aligner owns both).
  bool Score(const PairScoreTable& table, std::string_view query,
             std::string_view target, SimdLevel level, int* score);

 private:
  /// Re-stripes the cached query layout for `lanes` lanes.
  void PrepareQuery(std::string_view query, size_t lanes);
  /// Builds (once) and returns the striped profile row for target
  /// character `c`: entry j*lanes + k = score(query[j + k*seg_len], c),
  /// zero-padded past the query end.
  const int16_t* ProfileRow(const PairScoreTable& table, uint8_t c);

  uint16_t gap_open_ = 0;    // positive penalty, includes first base
  uint16_t gap_extend_ = 0;  // positive penalty per further base

  std::string query_;  // the query the current layout was built for
  size_t lanes_ = 0;
  size_t seg_len_ = 0;
  std::array<std::vector<int16_t>, 256> rows_;  // lazily built profile
  std::array<bool, 256> row_built_{};
  std::vector<int16_t> h_store_;
  std::vector<int16_t> h_load_;
  std::vector<int16_t> e_;
};

}  // namespace cafe

#endif  // CAFE_ALIGN_SW_SIMD_H_
