// Internal: parser for the on-disk index format's prefix (header,
// document lengths, term directory), used by InvertedIndex's one open
// path, which then either copies the postings blob to the heap or keeps
// decoding it out of the file's mapping.
//
// See index_io.cc for the format layout.

#ifndef CAFE_INDEX_INDEX_FORMAT_H_
#define CAFE_INDEX_INDEX_FORMAT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "index/interval.h"
#include "index/inverted_index.h"
#include "index/vocabulary.h"
#include "util/status.h"

namespace cafe::index_internal {

struct IndexPrefix {
  IndexOptions options;
  std::vector<uint32_t> doc_lengths;
  TermDirectory directory{kMinIntervalLength};
  IndexStats stats;
  /// Byte offset of the postings blob within the parsed region.
  size_t blob_offset = 0;
  uint64_t blob_bytes = 0;
};

/// Parses everything before the postings blob. `data` must cover the file
/// contents *without* the trailing CRC-32 (the caller verifies that);
/// on success, data.substr(out->blob_offset, out->blob_bytes) is the blob.
/// Checks the structure a CRC cannot vouch for: every term's document
/// count is at most the number of documents, and every postings offset
/// lies inside the blob.
[[nodiscard]] Status ParseIndexPrefix(std::string_view data, IndexPrefix* out);

}  // namespace cafe::index_internal

#endif  // CAFE_INDEX_INDEX_FORMAT_H_
