// IndexReader: one entry point for "open this index file and give me a
// PostingSource", in either storage mode of InvertedIndex::Load:
//
//   kMemory  the postings blob copied to the heap; heap grows with the
//            index.
//   kMmap    the postings decoded in place from a read-only mapping of
//            the file; the heap holds only the directory, and opening
//            costs one CRC sweep of the file and no copy. After that
//            sweep the kernel may evict mapped pages under memory
//            pressure and fault them back in on use.
//
// cafe_cli and cafe_serve expose the choice as --index-mode=memory|mmap.

#ifndef CAFE_INDEX_INDEX_READER_H_
#define CAFE_INDEX_INDEX_READER_H_

#include <string>
#include <utility>

#include "index/inverted_index.h"
#include "index/posting_source.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace cafe {

/// Parses "memory" (or "mem") | "mmap"; InvalidArgument otherwise.
[[nodiscard]] Result<IndexMode> ParseIndexMode(const std::string& name);

const char* IndexModeName(IndexMode mode);

/// An opened index. Move-only; `source()` stays valid for the lifetime
/// of this object.
class IndexReader {
 public:
  [[nodiscard]] static Result<IndexReader> Open(const std::string& path,
                                                IndexMode mode);

  const PostingSource* source() const { return &index_; }

  /// Forwards to InvertedIndex::AttachMetrics: the mmap_index.*
  /// open-time facts of a mapped index, once; memory mode has none.
  void AttachMetrics(obs::MetricsRegistry* registry) {
    index_.AttachMetrics(registry);
  }

 private:
  explicit IndexReader(InvertedIndex index) : index_(std::move(index)) {}

  InvertedIndex index_;
};

}  // namespace cafe

#endif  // CAFE_INDEX_INDEX_READER_H_
