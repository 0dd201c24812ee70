// Compressed postings lists.
//
// A term's list is a sequence of (sequence id, occurrence positions)
// entries, stored as:
//
//   for each of doc_count sequences (ids ascending):
//     Golomb(doc gap; b_doc)        b_doc derived from (doc_count, N) —
//                                   both known to the decoder, so the
//                                   parameter costs no storage
//     gamma(tf)                     occurrences in this sequence
//     [positional granularity only]
//     Golomb(position gaps; b_pos)  first value is position+1; b_pos is
//                                   chosen per list at build time and kept
//                                   in the term directory
//
// This is the inverted-file organisation of Bell/Moffat/Zobel text
// indexing transplanted to interval terms, which is precisely what the
// paper proposes ("a variation on techniques used for inverted file
// compression").

#ifndef CAFE_INDEX_POSTINGS_H_
#define CAFE_INDEX_POSTINGS_H_

#include <cstdint>
#include <vector>

#include "coding/elias.h"
#include "coding/golomb.h"
#include "index/vocabulary.h"
#include "util/bitio.h"
#include "util/check.h"

namespace cafe {

/// What a postings entry records about each matching sequence.
enum class IndexGranularity : uint8_t {
  kDocument = 0,    // sequence id + occurrence count
  kPositional = 1,  // id + count + every occurrence position
};

/// Encodes one term's postings from parallel arrays sorted by
/// (doc, position). Returns the number of distinct docs and stores the
/// chosen position-gap Golomb parameter in *position_param (1 for
/// document granularity).
uint32_t EncodePostings(const uint32_t* docs, const uint32_t* positions,
                        size_t count, uint32_t num_docs,
                        IndexGranularity granularity, BitWriter* w,
                        uint32_t* position_param);

/// Streaming decoder for one term's postings list.
/// `fn(doc, tf, positions, npos)` is invoked once per matching sequence;
/// `positions` is nullptr (npos = 0) at document granularity. The
/// positions buffer is owned by the decoder and reused across calls.
/// Every doc handed to `fn` is below `num_docs` and was read from
/// inside the blob, and the tfs handed out sum to at most
/// `entry.posting_count`: a corrupt list stops at the first doc id out
/// of range, at the first tf that takes the sum past `posting_count` or
/// is larger than the bits left (each position takes at least one), and
/// before the first entry whose read ran past the blob (past the end
/// every gap decodes as 1, so a truncated list would otherwise hand out
/// made-up consecutive doc ids). Returns the bit position where decoding
/// stopped — for a well-formed list, the start of the next one.
template <typename Fn>
uint64_t DecodePostings(const uint8_t* blob, size_t blob_bytes,
                        uint64_t bit_offset, const TermEntry& entry,
                        uint32_t num_docs, IndexGranularity granularity,
                        std::vector<uint32_t>* pos_buf, Fn&& fn) {
  // Directory offsets were either produced in-process or checked
  // against the blob size when the file was opened (ParseIndexPrefix),
  // so an out-of-range offset is a bug, not bad input.
  CAFE_DCHECK_LE(bit_offset, blob_bytes * 8);
  BitReader r(blob, blob_bytes);
  r.SeekToBit(bit_offset);
  const uint64_t b_doc =
      coding::OptimalGolombParameter(entry.doc_count, num_docs);
  const uint64_t b_pos = entry.position_param;
  uint64_t doc = 0;
  // Postings not yet handed out; every valid list spends exactly
  // posting_count.
  uint64_t postings_left = entry.posting_count;
  for (uint32_t i = 0; i < entry.doc_count; ++i) {
    const uint64_t gap = coding::DecodeGolomb(&r, b_doc);
    doc = i == 0 ? gap - 1 : doc + gap;
    if (doc >= num_docs) break;  // corrupt input
    const auto id = static_cast<uint32_t>(doc);
    const uint64_t tf_code = coding::DecodeGamma(&r);
    if (tf_code > postings_left) break;  // corrupt input
    postings_left -= tf_code;
    const auto tf = static_cast<uint32_t>(tf_code);
    if (granularity == IndexGranularity::kDocument) {
      if (r.overflowed()) break;  // corrupt input
      fn(id, tf, static_cast<const uint32_t*>(nullptr), uint32_t{0});
      continue;
    }
    // Every position costs at least one bit, so a tf beyond the bits
    // left is corrupt input — stop before it sizes the buffer.
    if (tf > r.bits_remaining()) break;
    pos_buf->resize(tf);
    uint64_t pos = 0;
    for (uint32_t k = 0; k < tf; ++k) {
      pos += coding::DecodeGolomb(&r, b_pos);
      (*pos_buf)[k] = static_cast<uint32_t>(pos - 1);
    }
    if (r.overflowed()) break;  // corrupt input
    fn(id, tf, pos_buf->data(), tf);
  }
  return r.bit_position();
}

}  // namespace cafe

#endif  // CAFE_INDEX_POSTINGS_H_
