// Direct coding of nucleotide sequences (the `cino` scheme from the CAFE
// lineage): lossless, model-free, byte-packed for fast decompression.
//
// Layout per sequence (bit stream, then byte-aligned payload):
//   gamma(L + 1)                      sequence length
//   gamma(w + 1)                      number of wildcard exceptions
//   [ golomb(gap_i; b(w, L)) ]*w      wildcard positions as 1-based gaps,
//                                     parameter derived from (w, L) so no
//                                     side information is stored
//   [ 4-bit IUPAC mask ]*w            the wildcard letters themselves
//   <pad to byte boundary>
//   ceil(L / 4) bytes                 2-bit base codes, 4 bases per byte,
//                                     wildcard slots hold the first base of
//                                     their ambiguity set (repaired from
//                                     the exception list on decode)
//
// The byte-aligned payload is what makes decompression fast: the decoder
// expands whole bytes through a 256-entry -> 4-char table instead of
// shifting bits. Wildcards — rare in practice (~0.02 % of GenBank bases) —
// cost a few bits each, so the scheme stays within a hair of 2 bits/base
// while remaining lossless.

#ifndef CAFE_SEQSTORE_DIRECT_CODING_H_
#define CAFE_SEQSTORE_DIRECT_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cafe {

/// Appends the direct coding of `seq` to `*out`. `seq` must be a valid
/// normalized IUPAC sequence (upper case; use NormalizeSequence /
/// IsValidSequence upstream). The encoding starts and ends on a byte
/// boundary, so encoded sequences can be concatenated and sliced by byte
/// offsets.
[[nodiscard]] Status DirectEncodeAppend(std::string_view seq, std::vector<uint8_t>* out);

/// Decodes one sequence from `data`, which must hold exactly the bytes
/// of one DirectEncodeAppend call.
[[nodiscard]] Status DirectDecode(const uint8_t* data, size_t size, std::string* out);

/// Decodes only the length, without expanding the bases.
[[nodiscard]] Status DirectDecodeLength(const uint8_t* data, size_t size, size_t* length);

/// Parses the header of the sequence that starts at `data`, with `size`
/// bytes left: on success *length is the base count and *payload_offset
/// the byte offset of the packed bases within `data`, so the encoding
/// ends at *payload_offset + ceil(*length / 4). Enables zero-decode
/// packed comparison (seqstore/packed_view.h). The header is checked
/// as DirectDecode checks it, so a sequence located here decodes.
[[nodiscard]] Status DirectLocatePayload(const uint8_t* data, size_t size,
                           size_t* length, size_t* payload_offset);

}  // namespace cafe

#endif  // CAFE_SEQSTORE_DIRECT_CODING_H_
