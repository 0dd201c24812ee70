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
// Two loops share that geometry. BandedScore, the fine-phase kernel,
// computes the score only over each row's clipped k-range. BandedAlign
// walks every in-band slot and records one direction byte per cell; it
// runs only on reported hits and is the oracle the score loop is tested
// against.

#include <algorithm>
#include <vector>

#include "align/smith_waterman.h"

namespace cafe {
namespace {

constexpr int32_t kNegInf = INT32_MIN / 4;

constexpr uint8_t kHStop = 0;
constexpr uint8_t kHDiag = 1;
constexpr uint8_t kHFromE = 2;  // horizontal: gap consuming a target base
constexpr uint8_t kHFromF = 3;  // vertical: gap consuming a query base
constexpr uint8_t kHMask = 3;
constexpr uint8_t kEExtend = 4;
constexpr uint8_t kFExtend = 8;

struct BandedResult {
  int32_t best = 0;
  size_t best_i = 0;
  size_t best_j = 0;
};

// The traceback loop: `dir` receives one byte per in-band cell
// (row-major, 2*band+1 cells per row). It visits every slot of every
// row, writing -inf (and kHStop) outside the target.
BandedResult RunBandedDp(std::string_view query, std::string_view target,
                         int64_t d0, int band, const PairScoreTable& table,
                         int32_t go, int32_t ge, std::vector<int32_t>* h_buf,
                         std::vector<int32_t>* f_buf, uint8_t* dir,
                         uint64_t* cells) {
  const int64_t m = static_cast<int64_t>(query.size());
  const int64_t n = static_cast<int64_t>(target.size());
  const int64_t width = 2 * static_cast<int64_t>(band) + 1;

  h_buf->assign(width, kNegInf);
  f_buf->assign(width, kNegInf);
  int32_t* h = h_buf->data();
  int32_t* f = f_buf->data();

  BandedResult out;
  for (int64_t i = 1; i <= m; ++i) {
    const int16_t* score_row = table.Row(query[i - 1]);
    uint8_t* dir_row = dir + (i - 1) * width;
    const bool first_row = (i == 1);
    const int64_t j_first = i + d0 - band;

    // Left neighbours of the first in-band cell of this row.
    int32_t h_left = (j_first - 1 == 0) ? 0 : kNegInf;
    int32_t e = kNegInf;

    for (int64_t k = 0; k < width; ++k) {
      const int64_t j = j_first + k;
      if (j < 1 || j > n) {
        h[k] = kNegInf;
        f[k] = kNegInf;
        dir_row[k] = kHStop;
        h_left = kNegInf;
        e = kNegInf;
        continue;
      }

      // Previous-row neighbours (row 0 is all zeros for local alignment;
      // column 0 likewise).
      int32_t diag = first_row ? 0 : ((j - 1 == 0) ? 0 : h[k]);
      int32_t ph = first_row ? 0 : (k + 1 < width ? h[k + 1] : kNegInf);
      int32_t pf = first_row ? kNegInf
                             : (k + 1 < width ? f[k + 1] : kNegInf);

      uint8_t d = 0;
      int32_t f_open = ph + go;
      int32_t f_ext = pf + ge;
      int32_t fj = f_open;
      if (f_ext > f_open) {
        fj = f_ext;
        d |= kFExtend;
      }

      int32_t e_open = h_left + go;
      int32_t e_ext = e + ge;
      if (e_ext > e_open) {
        e = e_ext;
        d |= kEExtend;
      } else {
        e = e_open;
      }

      int32_t hd = diag + score_row[static_cast<uint8_t>(target[j - 1])];
      int32_t hv = 0;
      uint8_t src = kHStop;
      if (hd > hv) {
        hv = hd;
        src = kHDiag;
      }
      if (e > hv) {
        hv = e;
        src = kHFromE;
      }
      if (fj > hv) {
        hv = fj;
        src = kHFromF;
      }
      dir_row[k] = d | src;

      h[k] = hv;
      f[k] = fj;
      h_left = hv;
      if (hv > out.best) {
        out.best = hv;
        out.best_i = static_cast<size_t>(i);
        out.best_j = static_cast<size_t>(j);
      }
    }
  }
  *cells += static_cast<uint64_t>(m) * static_cast<uint64_t>(width);
  return out;
}

}  // namespace

// The score-only loop. Same recurrence as RunBandedDp, but each row's
// k-range is clipped to the target once, so the inner loop has no
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
  LocalAlignment out;
  if (query.empty() || target.empty() || band < 0) return out;
  const int64_t width = 2 * static_cast<int64_t>(band) + 1;
  std::vector<uint8_t> dir(query.size() * static_cast<size_t>(width));
  BandedResult r = RunBandedDp(query, target, diagonal, band, *table_,
                               scheme_.gap_open, scheme_.gap_extend, &h_buf_,
                               &f_buf_, dir.data(), &cells_);
  out.score = r.best;
  if (r.best == 0) return out;

  std::vector<EditOp> rops;
  int64_t i = static_cast<int64_t>(r.best_i);
  int64_t j = static_cast<int64_t>(r.best_j);
  enum class State { kH, kE, kF } state = State::kH;
  while (i > 0 && j > 0) {
    int64_t k = j - i - diagonal + band;
    if (k < 0 || k >= width) break;
    uint8_t d = dir[(i - 1) * width + k];
    if (state == State::kH) {
      uint8_t src = d & kHMask;
      if (src == kHStop) break;
      if (src == kHDiag) {
        rops.push_back(query[i - 1] == target[j - 1] ? EditOp::kMatch
                                                     : EditOp::kMismatch);
        --i;
        --j;
      } else if (src == kHFromE) {
        state = State::kE;
      } else {
        state = State::kF;
      }
    } else if (state == State::kE) {
      rops.push_back(EditOp::kDeletion);
      bool ext = (d & kEExtend) != 0;
      --j;
      if (!ext) state = State::kH;
    } else {
      rops.push_back(EditOp::kInsertion);
      bool ext = (d & kFExtend) != 0;
      --i;
      if (!ext) state = State::kH;
    }
  }

  out.query_begin = static_cast<uint32_t>(i);
  out.query_end = static_cast<uint32_t>(r.best_i);
  out.target_begin = static_cast<uint32_t>(j);
  out.target_end = static_cast<uint32_t>(r.best_j);
  out.ops.assign(rops.rbegin(), rops.rend());
  return out;
}

}  // namespace cafe
