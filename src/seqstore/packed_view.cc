#include "seqstore/packed_view.h"

#include <cstring>

#include "alphabet/nucleotide.h"
#include "util/check.h"

namespace cafe {
namespace {

constexpr uint64_t kPairLow = 0x5555555555555555ull;

// Loads the 64-bit big-endian value at byte `j` of a payload of
// `payload_bytes` bytes, zero-padding past the end, then splices in the
// sub-byte offset so base `pos` sits in the top bit pair.
uint64_t LoadShifted(const uint8_t* payload, size_t payload_bytes,
                     size_t pos) {
  CAFE_DCHECK_LT(pos >> 2, payload_bytes);
  size_t j = pos >> 2;
  int r = static_cast<int>(pos & 3);
  if (j + 9 <= payload_bytes) {
    // Fast path: one unaligned load + byte swap covers bytes j..j+7.
    uint64_t hi;
    std::memcpy(&hi, payload + j, 8);
    hi = __builtin_bswap64(hi);
    if (r == 0) return hi;
    return (hi << (2 * r)) |
           (static_cast<uint64_t>(payload[j + 8]) >> (8 - 2 * r));
  }
  uint8_t buf[9] = {0};
  size_t avail = payload_bytes > j ? payload_bytes - j : 0;
  if (avail > 9) avail = 9;
  std::memcpy(buf, payload + j, avail);
  uint64_t hi = 0;
  for (int k = 0; k < 8; ++k) hi = (hi << 8) | buf[k];
  if (r == 0) return hi;
  return (hi << (2 * r)) | (static_cast<uint64_t>(buf[8]) >> (8 - 2 * r));
}

// Mismatch flags (low bit of each pair) between two 32-base words.
inline uint64_t MismatchFlags(uint64_t a, uint64_t b) {
  uint64_t x = a ^ b;
  return (x | (x >> 1)) & kPairLow;
}

// Mask selecting the top `take` base pairs (take in [0, 32]).
inline uint64_t TopPairs(int take) {
  if (take <= 0) return 0;
  if (take >= 32) return ~uint64_t{0};
  return ~uint64_t{0} << (64 - 2 * take);
}

}  // namespace

uint64_t PackedView::Extract64(size_t pos, int* valid) const {
  size_t payload_bytes = (size_ + 3) / 4;
  if (pos >= size_) {
    if (valid != nullptr) *valid = 0;
    return 0;
  }
  if (valid != nullptr) {
    size_t rest = size_ - pos;
    *valid = rest >= 32 ? 32 : static_cast<int>(rest);
  }
  return LoadShifted(payload_, payload_bytes, pos);
}

std::string PackedView::ToString() const {
  std::string out(size_, 'A');
  for (size_t i = 0; i < size_; ++i) {
    out[i] = CodeToBase(BaseCode(i));
  }
  return out;
}

Result<PackedQuery> PackedQuery::FromString(std::string_view seq) {
  PackedQuery q;
  q.buffer_.assign((seq.size() + 3) / 4, 0);
  for (size_t i = 0; i < seq.size(); ++i) {
    int code = BaseToCode(seq[i]);
    if (code < 0) {
      uint8_t mask = IupacMask(seq[i]);
      if (mask == 0) {
        return Status::InvalidArgument(
            std::string("non-IUPAC character '") + seq[i] + "'");
      }
      code = 0;
      while ((mask & (1u << code)) == 0) ++code;
    }
    q.buffer_[i >> 2] |= static_cast<uint8_t>(code << (2 * (3 - (i & 3))));
  }
  q.view_ = PackedView(q.buffer_.data(), seq.size());
  return q;
}

size_t PackedMatchCount(const PackedView& a, size_t apos,
                        const PackedView& b, size_t bpos, size_t len) {
  size_t matches = 0;
  size_t done = 0;
  while (done < len) {
    int va = 0, vb = 0;
    uint64_t wa = a.Extract64(apos + done, &va);
    uint64_t wb = b.Extract64(bpos + done, &vb);
    int take = len - done < 32 ? static_cast<int>(len - done) : 32;
    if (take > va) take = va;
    if (take > vb) take = vb;
    if (take <= 0) break;  // window ran past a sequence end
    uint64_t ne = MismatchFlags(wa, wb) & TopPairs(take);
    matches += static_cast<size_t>(take) -
               static_cast<size_t>(__builtin_popcountll(ne));
    done += static_cast<size_t>(take);
  }
  return matches;
}

UngappedSegment PackedXDropExtend(const PackedView& a, const PackedView& b,
                                  uint32_t a_pos, uint32_t b_pos,
                                  uint32_t seed_len, int match,
                                  int mismatch, int xdrop) {
  // Seed score.
  size_t seed_matches = PackedMatchCount(a, a_pos, b, b_pos, seed_len);
  int score = static_cast<int>(seed_matches) * match +
              static_cast<int>(seed_len - seed_matches) * mismatch;

  UngappedSegment seg;
  seg.query_begin = a_pos;
  seg.query_end = a_pos + seed_len;
  seg.target_begin = b_pos;
  seg.target_end = b_pos + seed_len;

  // Left arm: base at a time (short in practice; packed loads would need
  // reverse extraction).
  {
    int run = score;
    int best = score;
    uint32_t ai = a_pos, bi = b_pos;
    uint32_t best_a = a_pos, best_b = b_pos;
    while (ai > 0 && bi > 0) {
      --ai;
      --bi;
      run += a.BaseCode(ai) == b.BaseCode(bi) ? match : mismatch;
      if (run > best) {
        best = run;
        best_a = ai;
        best_b = bi;
      } else if (run < best - xdrop) {
        break;
      }
    }
    score = best;
    seg.query_begin = best_a;
    seg.target_begin = best_b;
  }

  // Right arm: 32 bases per load; all-match chunks are consumed in one
  // step, mixed chunks are resolved pair by pair in registers. The
  // running/best bookkeeping matches XDropExtend exactly.
  {
    int run = score;
    int best = score;
    uint64_t ai = a_pos + seed_len;
    uint64_t bi = b_pos + seed_len;
    uint64_t best_a = ai, best_b = bi;
    bool dropped = false;
    while (!dropped) {
      int va = 0, vb = 0;
      uint64_t wa = a.Extract64(ai, &va);
      uint64_t wb = b.Extract64(bi, &vb);
      int take = va < vb ? va : vb;
      if (take <= 0) break;
      uint64_t ne = MismatchFlags(wa, wb) & TopPairs(take);
      if (ne == 0) {
        // Monotone rise: if the chunk crosses the previous peak, the new
        // peak is the chunk end; inside a dip the peak may survive.
        run += take * match;
        ai += static_cast<uint64_t>(take);
        bi += static_cast<uint64_t>(take);
        if (run > best) {
          best = run;
          best_a = ai;
          best_b = bi;
        }
        continue;
      }
      // Mixed chunk: jump mismatch to mismatch (clz on the flag mask);
      // between mismatches run rises monotonically, so batch-adding the
      // match run and checking the peak once is exactly the per-base
      // bookkeeping of XDropExtend.
      int consumed = 0;  // bases of this chunk already applied
      while (true) {
        int k;  // chunk-relative index of the next mismatch, or `take`
        if (ne == 0) {
          k = take;
        } else {
          // Flag for base k sits at MSB-index 2k+1.
          k = __builtin_clzll(ne) >> 1;
        }
        int gap = k - consumed;
        if (gap > 0) {
          run += gap * match;
          ai += static_cast<uint64_t>(gap);
          bi += static_cast<uint64_t>(gap);
          if (run > best) {
            best = run;
            best_a = ai;
            best_b = bi;
          }
          consumed = k;
        }
        if (k >= take) break;
        run += mismatch;
        ++ai;
        ++bi;
        ++consumed;
        ne &= ~(uint64_t{1} << (62 - 2 * k));
        if (run > best) {  // only reachable with a non-negative mismatch
          best = run;
          best_a = ai;
          best_b = bi;
        } else if (run < best - xdrop) {
          dropped = true;
          break;
        }
      }
    }
    score = best;
    seg.query_end = static_cast<uint32_t>(best_a);
    seg.target_end = static_cast<uint32_t>(best_b);
  }

  seg.score = score;
  return seg;
}

}  // namespace cafe
