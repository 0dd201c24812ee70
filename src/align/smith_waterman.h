// Local alignment (Smith-Waterman with Gotoh affine gaps).
//
// Aligner bundles a scoring scheme with a precomputed 256x256 pair-score
// table so the O(mn) inner loops are pure table lookups. One Aligner is
// built per search worker and reused across every candidate sequence it
// scores. Aligners built from equal schemes share one table
// (PairScoreTable::Shared), so building an Aligner per query costs no
// table build.
//
// Reentrancy contract (scratch-per-instance): the const query methods
// mutate only this instance's DP scratch and cell counter, so distinct
// Aligner instances are safe to use concurrently — the parallel fine
// phase gives every worker thread its own Aligner and sums the
// per-instance cell counts afterwards. The shared table is never
// written after it is built, so instances that share it stay
// independent. A single instance must not be shared across threads
// without external synchronization.

#ifndef CAFE_ALIGN_SMITH_WATERMAN_H_
#define CAFE_ALIGN_SMITH_WATERMAN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "align/alignment.h"
#include "align/scoring.h"
#include "align/sw_simd.h"
#include "util/simd.h"
#include "util/status.h"

namespace cafe {

/// Dense pairwise score lookup built from a ScoringScheme.
class PairScoreTable {
 public:
  explicit PairScoreTable(const ScoringScheme& scheme);

  /// The table for `scheme`, shared and immutable. One slot keeps the
  /// most recently requested scheme's table; a different scheme builds
  /// a new table and takes the slot, while holders of the old one keep
  /// it alive. Thread-safe.
  static std::shared_ptr<const PairScoreTable> Shared(
      const ScoringScheme& scheme);

  int operator()(char a, char b) const {
    return table_[static_cast<uint8_t>(a)][static_cast<uint8_t>(b)];
  }

  const int16_t* Row(char a) const {
    return table_[static_cast<uint8_t>(a)].data();
  }

 private:
  std::array<std::array<int16_t, 256>, 256> table_;
};

class Aligner {
 public:
  explicit Aligner(const ScoringScheme& scheme = ScoringScheme());

  const ScoringScheme& scheme() const { return scheme_; }
  /// The pair-score table, shared with every Aligner of an equal scheme.
  const PairScoreTable& table() const { return *table_; }

  /// Best local alignment score; linear space, O(|q|*|t|) time.
  /// Dispatches to the striped SIMD kernel (align/sw_simd.h) when the
  /// active tier and the scheme allow it; the scalar loop is the oracle
  /// and the saturation fallback. Every tier returns the identical
  /// score and advances cells_computed() identically.
  int ScoreOnly(std::string_view query, std::string_view target) const;

  /// Most DP cells a traceback may record (one direction byte each).
  static constexpr uint64_t kMaxTracebackCells = uint64_t{1} << 26;

  /// Best local alignment with traceback, from the one
  /// direction-recording DP that BandedAlign also runs. Fails with
  /// InvalidArgument, before allocating, when |query| * |target|
  /// exceeds kMaxTracebackCells.
  Result<LocalAlignment> Align(std::string_view query,
                               std::string_view target) const;

  /// Banded local alignment score. The band is centred on diagonal
  /// `diagonal` (= target position - query position) with half-width
  /// `band`: only cells with |(j - i) - diagonal| <= band are computed.
  /// This is the fine-search workhorse — candidates arrive from the
  /// coarse phase with a known hit diagonal. A scalar score-only loop;
  /// it advances cells_computed() by |query| * (2 * band + 1), however
  /// much of the band falls outside the target.
  int BandedScore(std::string_view query, std::string_view target,
                  int64_t diagonal, int band) const;

  /// Banded local alignment with traceback: Align's DP over the band's
  /// cells. Same score and cell accounting as BandedScore; it also
  /// records one direction byte per in-band cell, so it is for reported
  /// hits, not for ranking. Fails with InvalidArgument, before
  /// allocating, when |query| * (2 * band + 1) exceeds
  /// kMaxTracebackCells.
  Result<LocalAlignment> BandedAlign(std::string_view query,
                                     std::string_view target,
                                     int64_t diagonal, int band) const;

  /// DP cells computed since construction (performance accounting for the
  /// experiments).
  uint64_t cells_computed() const { return cells_; }
  void ResetCellCount() { cells_ = 0; }

  /// The dispatch tier ScoreOnly runs at — ActiveSimdLevel() at
  /// construction. The setter is a test hook: the oracle tests force
  /// every tier onto identical inputs without re-exec'ing under a
  /// different CAFE_SIMD_LEVEL.
  SimdLevel simd_level() const { return simd_level_; }
  void set_simd_level(SimdLevel level) { simd_level_ = level; }

 private:
  // The traceback DP behind Align and BandedAlign. Row i (1-based) has
  // `width` slots, slot k holding column slope * i + offset + k: slope 0
  // and offset 1 give the full matrix, slope 1 a band of diagonals.
  Result<LocalAlignment> TracebackDp(std::string_view query,
                                     std::string_view target, int64_t slope,
                                     int64_t offset, int64_t width) const;

  ScoringScheme scheme_;
  std::shared_ptr<const PairScoreTable> table_;
  SimdLevel simd_level_;
  bool striped_ok_;
  mutable uint64_t cells_ = 0;
  mutable std::vector<int32_t> h_buf_;
  mutable std::vector<int32_t> f_buf_;
  mutable StripedScorer striped_;
};

}  // namespace cafe

#endif  // CAFE_ALIGN_SMITH_WATERMAN_H_
