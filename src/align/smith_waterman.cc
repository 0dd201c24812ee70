#include "align/smith_waterman.h"

#include <algorithm>
#include <cassert>

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

}  // namespace

PairScoreTable::PairScoreTable(const ScoringScheme& scheme) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      table_[a][b] = static_cast<int16_t>(
          scheme.Score(static_cast<char>(a), static_cast<char>(b)));
    }
  }
}

Aligner::Aligner(const ScoringScheme& scheme)
    : scheme_(scheme),
      table_(scheme),
      simd_level_(ActiveSimdLevel()),
      striped_ok_(StripedScorer::Supported(scheme)),
      striped_(scheme) {}

int Aligner::ScoreOnly(std::string_view query, std::string_view target) const {
  const size_t m = query.size();
  const size_t n = target.size();
  if (m == 0 || n == 0) return 0;
  if (simd_level_ != SimdLevel::kScalar && striped_ok_) {
    int score = 0;
    if (striped_.Score(table_, query, target, simd_level_, &score)) {
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
    const int16_t* score_row = table_.Row(query[i - 1]);
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
                                      std::string_view target,
                                      uint64_t max_cells) const {
  const size_t m = query.size();
  const size_t n = target.size();
  if (m == 0 || n == 0) {
    return LocalAlignment{};
  }
  if (static_cast<uint64_t>(m) * n > max_cells) {
    return Status::InvalidArgument(
        "alignment matrix of " + std::to_string(m) + "x" + std::to_string(n) +
        " exceeds max_cells; use BandedAlign for long targets");
  }
  const int32_t go = scheme_.gap_open;
  const int32_t ge = scheme_.gap_extend;

  std::vector<uint8_t> dir(m * n);
  h_buf_.assign(n + 1, 0);
  f_buf_.assign(n + 1, kNegInf);
  int32_t* h = h_buf_.data();
  int32_t* f = f_buf_.data();

  int32_t best = 0;
  size_t best_i = 0, best_j = 0;
  for (size_t i = 1; i <= m; ++i) {
    const int16_t* score_row = table_.Row(query[i - 1]);
    uint8_t* dir_row = dir.data() + (i - 1) * n;
    int32_t diag = 0;
    int32_t e = kNegInf;
    int32_t h_left = 0;
    for (size_t j = 1; j <= n; ++j) {
      uint8_t d = 0;

      int32_t f_open = h[j] + go;
      int32_t f_ext = f[j] + ge;
      int32_t fj = f_open;
      if (f_ext > f_open) {
        fj = f_ext;
        d |= kFExtend;
      }
      f[j] = fj;

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
      dir_row[j - 1] = d | src;

      diag = h[j];
      h[j] = hv;
      h_left = hv;
      if (hv > best) {
        best = hv;
        best_i = i;
        best_j = j;
      }
    }
  }
  cells_ += static_cast<uint64_t>(m) * n;

  LocalAlignment out;
  out.score = best;
  if (best == 0) {
    return out;
  }

  // Traceback from the best cell.
  std::vector<EditOp> rops;
  size_t i = best_i, j = best_j;
  enum class State { kH, kE, kF } state = State::kH;
  while (i > 0 && j > 0) {
    uint8_t d = dir[(i - 1) * n + (j - 1)];
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
