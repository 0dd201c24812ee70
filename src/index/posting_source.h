// PostingSource: what the coarse and chaining phases read postings from.
//
// It is the InvertedIndex itself (inverted_index.h). One class decodes
// every read path: the postings bytes are either an owned heap buffer
// (a freshly built index, or one loaded with --index-mode=memory) or a
// read-only mapping of the index file (--index-mode=mmap). Callers that
// know their callee type statically use the ForEachPosting template;
// ScanPostings takes a type-erased PostingCallback for the rest.

#ifndef CAFE_INDEX_POSTING_SOURCE_H_
#define CAFE_INDEX_POSTING_SOURCE_H_

#include <cstdint>
#include <functional>

namespace cafe {

class InvertedIndex;

/// Callback invoked once per posting entry:
/// (doc, tf, positions, npos); positions is nullptr at document
/// granularity.
using PostingCallback =
    std::function<void(uint32_t, uint32_t, const uint32_t*, uint32_t)>;

using PostingSource = InvertedIndex;

}  // namespace cafe

#endif  // CAFE_INDEX_POSTING_SOURCE_H_
