#include "align/smith_waterman.h"

#include <algorithm>
#include <cassert>

#include "util/mutex.h"

namespace cafe {
namespace {

constexpr int32_t kNegInf = INT32_MIN / 4;

// Traceback direction encoding, one byte per cell.
constexpr uint8_t kHStop = 0;
constexpr uint8_t kHDiag = 1;
constexpr uint8_t kHFromE = 2;  // horizontal (gap consuming target)
constexpr uint8_t kHFromF = 3;  // vertical (gap consuming query)
constexpr uint8_t kHMask = 3;
constexpr uint8_t kEExtend = 4;  // E came from E (not H)
constexpr uint8_t kFExtend = 8;  // F came from F (not H)

// PairScoreTable::Shared's one slot: the most recently requested
// scheme and its table.
Mutex g_table_mu;
ScoringScheme g_table_scheme CAFE_GUARDED_BY(g_table_mu);
std::shared_ptr<const PairScoreTable> g_table CAFE_GUARDED_BY(g_table_mu);

}  // namespace

PairScoreTable::PairScoreTable(const ScoringScheme& scheme) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      table_[a][b] = static_cast<int16_t>(
          scheme.Score(static_cast<char>(a), static_cast<char>(b)));
    }
  }
}

std::shared_ptr<const PairScoreTable> PairScoreTable::Shared(
    const ScoringScheme& scheme) {
  MutexLock lock(&g_table_mu);
  if (g_table == nullptr || g_table_scheme != scheme) {
    // Built under the lock, so concurrent first requests for one scheme
    // build it once.
    g_table = std::make_shared<const PairScoreTable>(scheme);
    g_table_scheme = scheme;
  }
  return g_table;
}

Aligner::Aligner(const ScoringScheme& scheme)
    : scheme_(scheme),
      table_(PairScoreTable::Shared(scheme)),
      simd_level_(ActiveSimdLevel()),
      striped_ok_(StripedScorer::Supported(scheme)),
      striped_(scheme) {}

int Aligner::ScoreOnly(std::string_view query, std::string_view target) const {
  const size_t m = query.size();
  const size_t n = target.size();
  if (m == 0 || n == 0) return 0;
  if (simd_level_ != SimdLevel::kScalar && striped_ok_) {
    int score = 0;
    if (striped_.Score(*table_, query, target, simd_level_, &score)) {
      // Same accounting as the scalar loop, so stats and traces are
      // byte-identical across dispatch tiers.
      cells_ += static_cast<uint64_t>(m) * n;
      return score;
    }
  }
  const int32_t go = scheme_.gap_open;
  const int32_t ge = scheme_.gap_extend;

  h_buf_.assign(n + 1, 0);
  f_buf_.assign(n + 1, kNegInf);
  int32_t* h = h_buf_.data();
  int32_t* f = f_buf_.data();

  int32_t best = 0;
  for (size_t i = 1; i <= m; ++i) {
    const int16_t* score_row = table_->Row(query[i - 1]);
    int32_t diag = 0;  // H[i-1][0]
    int32_t e = kNegInf;
    int32_t h_left = 0;  // H[i][j-1]
    for (size_t j = 1; j <= n; ++j) {
      int32_t fj = std::max(h[j] + go, f[j] + ge);
      f[j] = fj;
      e = std::max(h_left + go, e + ge);
      int32_t hv = diag + score_row[static_cast<uint8_t>(target[j - 1])];
      hv = std::max(hv, e);
      hv = std::max(hv, fj);
      hv = std::max(hv, 0);
      diag = h[j];
      h[j] = hv;
      h_left = hv;
      best = std::max(best, hv);
    }
  }
  cells_ += static_cast<uint64_t>(m) * n;
  return best;
}

Result<LocalAlignment> Aligner::Align(std::string_view query,
                                      std::string_view target) const {
  return TracebackDp(query, target, /*slope=*/0, /*offset=*/1,
                     static_cast<int64_t>(target.size()));
}

// With row i's slot k at column slope * i + offset + k, the previous
// row's slot k + slope is the vertical neighbour, and the diagonal is
// the vertical read one slot earlier, carried in `diag`. Slot k + slope
// is read before slot k is overwritten, so one array per matrix holds
// both rows. Row 0 and column 0 are zeros (local alignment). Every slot
// is bounds-checked on its own: a slot outside the target stores -inf,
// and a neighbour outside the band reads -inf.
Result<LocalAlignment> Aligner::TracebackDp(std::string_view query,
                                            std::string_view target,
                                            int64_t slope, int64_t offset,
                                            int64_t width) const {
  const int64_t m = static_cast<int64_t>(query.size());
  const int64_t n = static_cast<int64_t>(target.size());
  LocalAlignment out;
  if (m == 0 || n == 0 || width < 1) return out;
  if (static_cast<uint64_t>(m) >
      kMaxTracebackCells / static_cast<uint64_t>(width)) {
    return Status::InvalidArgument(
        "traceback matrix of " + std::to_string(m) + "x" +
        std::to_string(width) + " cells exceeds the limit of " +
        std::to_string(kMaxTracebackCells));
  }
  const int32_t go = scheme_.gap_open;
  const int32_t ge = scheme_.gap_extend;

  std::vector<uint8_t> dir(static_cast<size_t>(m * width));
  h_buf_.assign(width, kNegInf);
  f_buf_.assign(width, kNegInf);
  int32_t* h = h_buf_.data();
  int32_t* f = f_buf_.data();

  int32_t best = 0;
  int64_t best_i = 0, best_j = 0;
  for (int64_t i = 1; i <= m; ++i) {
    const int16_t* score_row = table_->Row(query[i - 1]);
    uint8_t* dir_row = dir.data() + (i - 1) * width;
    const int64_t first = slope * i + offset;
    int32_t h_left = (first == 1) ? 0 : kNegInf;
    int32_t e = kNegInf;
    // Previous row's column first - 1: slot 0 under slope 1; under
    // slope 0 it is column 0, which the j == 1 rule below reads as 0.
    int32_t diag = (slope == 1) ? h[0] : 0;

    for (int64_t k = 0; k < width; ++k) {
      const int64_t j = first + k;
      const bool up_in_band = k + slope < width;
      const int32_t ph = (i == 1) ? 0 : (up_in_band ? h[k + slope] : kNegInf);
      const int32_t pf =
          (i == 1) ? kNegInf : (up_in_band ? f[k + slope] : kNegInf);
      const int32_t pd = (i == 1 || j == 1) ? 0 : diag;
      diag = ph;
      if (j < 1 || j > n) {
        h[k] = kNegInf;
        f[k] = kNegInf;
        dir_row[k] = kHStop;
        h_left = kNegInf;
        e = kNegInf;
        continue;
      }

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

      int32_t hd = pd + score_row[static_cast<uint8_t>(target[j - 1])];
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
      if (hv > best) {
        best = hv;
        best_i = i;
        best_j = j;
      }
    }
  }
  cells_ += static_cast<uint64_t>(m) * static_cast<uint64_t>(width);

  out.score = best;
  if (best == 0) return out;

  // Traceback from the best cell; it stops at a kHStop cell, at row or
  // column 0, or where the path leaves the band.
  std::vector<EditOp> rops;
  int64_t i = best_i, j = best_j;
  enum class State { kH, kE, kF } state = State::kH;
  while (i > 0 && j > 0) {
    const int64_t k = j - (slope * i + offset);
    if (k < 0 || k >= width) break;
    const uint8_t d = dir[(i - 1) * width + k];
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
    } else {  // State::kF
      rops.push_back(EditOp::kInsertion);
      bool ext = (d & kFExtend) != 0;
      --i;
      if (!ext) state = State::kH;
    }
  }

  out.query_begin = static_cast<uint32_t>(i);
  out.query_end = static_cast<uint32_t>(best_i);
  out.target_begin = static_cast<uint32_t>(j);
  out.target_end = static_cast<uint32_t>(best_j);
  out.ops.assign(rops.rbegin(), rops.rend());
  return out;
}

}  // namespace cafe
