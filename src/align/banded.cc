// Banded local alignment. The band is centred on a diagonal supplied by
// the coarse phase (interval hits fix the diagonal of a putative
// alignment) so fine search costs O(|q| * band) instead of O(|q| * |t|).
//
// Band geometry: cell (i, j) — query base i, target base j, 1-based — is
// inside the band when j - i is within `band` of the centre diagonal d0.
// Row i covers k = 0 .. 2*band, with j = i + d0 - band + k. Under this
// indexing the previous row's slot k is the diagonal neighbour and slot
// k+1 the vertical neighbour, so one array updated in place (ascending k)
// suffices: slot k is read (diag) in iteration k and slot k+1 (vertical)
// before either is overwritten.
//
// BandedScore, the fine-phase kernel, computes the score only over each
// row's clipped k-range. BandedAlign runs the traceback DP that Align
// also runs (smith_waterman.cc) over this band geometry, checking every
// slot on its own; it runs only on reported hits and is the oracle the
// score loop is tested against.

#include <algorithm>
#include <vector>

#include "align/smith_waterman.h"

namespace cafe {
namespace {

constexpr int32_t kNegInf = INT32_MIN / 4;

}  // namespace

// The score-only loop. Same recurrence as the traceback DP, but each
// row's k-range is clipped to the target once, so the inner loop has no
// bounds tests:
//   - h and f have width + 1 slots, seeded with row 0 (h = 0, f = -inf).
//     Slot `width` is the last cell's vertical neighbour; it reads 0 in
//     row 1 and -inf after that, since that cell lies outside the band.
//   - Column 0 is 0, and needs no store: the diagonal of cell j = 1 in
//     row i is slot 1 - j_first, which every earlier row's range starts
//     after, so it still holds its row-0 seed.
//   - Slots outside a row's range are never read by the next row: its
//     range is the same shifted by one, so it reads only cells the row
//     above computed, column 0 or slot `width`.
int Aligner::BandedScore(std::string_view query, std::string_view target,
                         int64_t diagonal, int band) const {
  if (query.empty() || target.empty() || band < 0) return 0;
  const int64_t m = static_cast<int64_t>(query.size());
  const int64_t n = static_cast<int64_t>(target.size());
  const int64_t width = 2 * static_cast<int64_t>(band) + 1;
  const int32_t go = scheme_.gap_open;
  const int32_t ge = scheme_.gap_extend;
  // Accounting counts the whole band of every row, clipped or not, so
  // cells_computed() is a function of the shapes alone.
  cells_ += static_cast<uint64_t>(m) * static_cast<uint64_t>(width);

  h_buf_.assign(width + 1, 0);
  f_buf_.assign(width + 1, kNegInf);
  int32_t* h = h_buf_.data();
  int32_t* f = f_buf_.data();

  // Rows before i_start lie wholly left of column 1. When there are
  // such rows, row i_start holds only cell j = 1, at slot width - 1,
  // and the row above it is out of band: slot `width` starts at -inf.
  const int64_t i_start = std::max<int64_t>(1, 1 - diagonal - band);
  if (i_start > 1) h[width] = kNegInf;
  const uint8_t* t = reinterpret_cast<const uint8_t*>(target.data());

  int32_t best = 0;
  for (int64_t i = i_start; i <= m; ++i) {
    const int64_t j_first = i + diagonal - band;
    if (j_first > n) break;  // this row and all below are past the target
    const int64_t k_lo = std::max<int64_t>(0, 1 - j_first);
    const int64_t k_hi = std::min<int64_t>(width - 1, n - j_first);
    const int16_t* score_row = table_->Row(query[i - 1]);
    const uint8_t* tj = t + (j_first + k_lo - 1);

    int32_t h_left = (j_first == 1) ? 0 : kNegInf;
    int32_t e = kNegInf;
    int32_t diag = h[k_lo];
    for (int64_t k = k_lo; k <= k_hi; ++k) {
      const int32_t up = h[k + 1];
      const int32_t fj = std::max(up + go, f[k + 1] + ge);
      e = std::max(h_left + go, e + ge);
      int32_t hv = std::max(diag + score_row[*tj++], 0);
      hv = std::max(hv, std::max(e, fj));
      diag = up;
      h[k] = hv;
      f[k] = fj;
      h_left = hv;
      best = std::max(best, hv);
    }
    if (i == 1) h[width] = kNegInf;
  }
  return best;
}

Result<LocalAlignment> Aligner::BandedAlign(std::string_view query,
                                            std::string_view target,
                                            int64_t diagonal,
                                            int band) const {
  return TracebackDp(query, target, /*slope=*/1, diagonal - band,
                     2 * static_cast<int64_t>(band) + 1);
}

}  // namespace cafe
