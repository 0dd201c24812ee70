// Byte-packed sequence comparison — the cino fast path.
//
// The direct-coded store keeps bases 2-bit packed; the follow-up work in
// the CAFE lineage (and later FSA-BLAST) exploits exactly this: "queries
// and collection sequences [are] compared four bases at a time" without
// decompression. PackedView exposes a sequence's packed payload in place
// (zero decode, zero copy), PackQuery packs a query string once, and the
// comparison kernels fetch 32 bases per 64-bit load:
//
//   x = bases_a ^ bases_b                 2 bits per base, 0 iff equal
//   ne = (x | x >> 1) & 0x5555...         1 flag bit per base
//   mismatches = popcount(ne)
//
// Wildcards are approximated by their first ambiguity-set base (exactly
// what the packed payload stores); at GenBank rates (~2e-4) this
// perturbs ungapped seed scores by well under one mismatch per seed.
// Alignment-grade scoring still goes through the IUPAC-aware scalar
// path.

#ifndef CAFE_SEQSTORE_PACKED_VIEW_H_
#define CAFE_SEQSTORE_PACKED_VIEW_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "align/xdrop.h"
#include "util/status.h"

namespace cafe {

/// A 2-bit packed sequence: either a view into a store's payload or
/// backed by its own buffer (PackQuery).
class PackedView {
 public:
  PackedView() = default;

  /// View over an existing packed payload (4 bases/byte, MSB pair first).
  PackedView(const uint8_t* payload, size_t num_bases)
      : payload_(payload), size_(num_bases) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* payload() const { return payload_; }

  /// 2-bit code of base i (A=0 C=1 G=2 T=3).
  int BaseCode(size_t i) const {
    uint8_t byte = payload_[i >> 2];
    return (byte >> (2 * (3 - (i & 3)))) & 3;
  }

  /// Up to 32 bases starting at `pos`, packed 2 bits per base with base
  /// `pos` in the TOP bit pair. Bases past the end are zero-filled;
  /// `*valid` receives how many are real.
  uint64_t Extract64(size_t pos, int* valid) const;

  /// Expands to characters (no wildcard restoration — packed views carry
  /// the substituted bases).
  std::string ToString() const;

 private:
  const uint8_t* payload_ = nullptr;
  size_t size_ = 0;
};

/// Packs a query string; wildcards map to the first base of their
/// ambiguity set (as the store does). Fails on non-IUPAC characters.
class PackedQuery {
 public:
  [[nodiscard]] static Result<PackedQuery> FromString(std::string_view seq);

  const PackedView& view() const { return view_; }
  size_t size() const { return view_.size(); }

 private:
  std::vector<uint8_t> buffer_;
  PackedView view_;
};

/// Number of equal base pairs in a[apos, apos+len) vs b[bpos, bpos+len),
/// 32 bases per 64-bit load. A window running past the end of either
/// operand counts over the overlap only.
size_t PackedMatchCount(const PackedView& a, size_t apos,
                        const PackedView& b, size_t bpos, size_t len);

/// Ungapped X-drop extension on packed sequences; semantics identical to
/// XDropExtend (align/xdrop.h) under pure match/mismatch scoring —
/// verified against it in tests — but fed by 64-bit packed loads.
UngappedSegment PackedXDropExtend(const PackedView& a, const PackedView& b,
                                  uint32_t a_pos, uint32_t b_pos,
                                  uint32_t seed_len, int match,
                                  int mismatch, int xdrop);

}  // namespace cafe

#endif  // CAFE_SEQSTORE_PACKED_VIEW_H_
