// The compressed inverted interval index — the data structure the paper
// contributes. Maps every interval term to a compressed postings list over
// the collection; the coarse search phase drives its ForEachPosting.
//
// Storage: the term directory and document lengths live on the heap.
// The postings blob is either owned (a freshly built index, or one
// loaded with IndexMode::kMemory) or a range of a read-only mapping of
// the index file (IndexMode::kMmap), decoded in place with no copy and
// no lock. Loading a mapped index reads every page once to verify the
// file CRC; after that the kernel may evict pages under memory pressure
// and fault them back in when a query touches them. The mapped file
// must not shrink while loaded (a truncation turns page loads into
// SIGBUS); replace-by-rename is safe, since the mapping pins the old
// inode.
//
// Reentrancy contract: once built (or loaded), the const query surface —
// FindTerm, ScanPostings, ForEachPosting, num_docs, doc_length(s),
// options, stats — is safe for concurrent use from any number of
// threads; postings decoding uses a thread-local scratch buffer and
// everything else is read-only. Serialize/SerializedBytes maintain a
// cached size and AttachMetrics records the open-time facts once;
// neither is part of that concurrent-safe surface.

#ifndef CAFE_INDEX_INVERTED_INDEX_H_
#define CAFE_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "index/posting_source.h"
#include "index/postings.h"
#include "index/vocabulary.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace cafe {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class SequenceCollection;

/// Build-time knobs. Defaults follow the CAFE practice: overlapping
/// intervals of length 8, positional granularity, no stopping.
struct IndexOptions {
  /// Interval (fixed substring) length n; vocabulary is 4^n.
  int interval_length = 8;

  /// Database-side extraction stride: 1 indexes every position
  /// (overlapping intervals); `interval_length` indexes non-overlapping
  /// intervals. The query side always extracts at stride 1.
  uint32_t stride = 1;

  /// Document-level or positional postings. Positional postings append
  /// delta-coded in-sequence offsets to every posting — the raw
  /// material for diagonal ranking and seed chaining; document
  /// granularity stores term frequencies only and costs far less space.
  IndexGranularity granularity = IndexGranularity::kPositional;

  /// Spaced-seed extraction pattern ('1' = care, '0' = don't care;
  /// alphabet/spaced_seed.h). Empty (the default) extracts contiguous
  /// intervals of `interval_length`; otherwise the pattern's weight
  /// must equal `interval_length` (terms stay 2n bits either way).
  /// Serialized in the index header (format version 2), so readers and
  /// the query side always extract with the builder's pattern.
  std::string spaced_seed;

  /// Index stopping: a term occurring in more than this fraction of the
  /// sequences is dropped from the index (1.0 disables stopping). The
  /// coarse search simply never sees stopped terms — the lossy
  /// acceleration the CAFE papers describe.
  double stop_doc_fraction = 1.0;

  /// Optional observability sink (obs/metrics.h). Runtime-only: never
  /// serialized, never affects index contents. When non-null, each
  /// IndexBuilder::Build call records the `index_build.*` counters and
  /// the `index_build.build_micros` histogram into it once.
  obs::MetricsRegistry* metrics = nullptr;

  [[nodiscard]] Status Validate() const;
};

/// Size/occupancy statistics used by experiments E1/E2/E6.
struct IndexStats {
  uint64_t num_terms = 0;
  uint64_t total_postings = 0;      // surviving (doc, pos) occurrences
  uint64_t stopped_terms = 0;
  uint64_t stopped_postings = 0;
  uint64_t postings_bits = 0;       // compressed postings blob
  uint64_t directory_bytes = 0;     // in-memory term directory footprint
  double bits_per_posting = 0.0;
};

/// Where InvertedIndex::Load keeps the postings blob.
enum class IndexMode {
  kMemory,  // copied to the heap
  kMmap,    // decoded in place from a read-only mapping of the file
};

class InvertedIndex final {
 public:
  InvertedIndex() : directory_(kMinIntervalLengthForCtor) {}

  const IndexOptions& options() const { return options_; }
  uint32_t num_docs() const {
    return static_cast<uint32_t>(doc_lengths_.size());
  }
  uint32_t doc_length(uint32_t doc) const { return doc_lengths_[doc]; }
  const std::vector<uint32_t>& doc_lengths() const { return doc_lengths_; }

  /// Directory entry for `term`, or nullptr if the term is unindexed
  /// (never occurred, or stopped).
  const TermEntry* FindTerm(uint32_t term) const {
    return directory_.Find(term);
  }

  /// ForEachPosting through a type-erased callback; prefer the template
  /// when the callee type is known statically.
  void ScanPostings(uint32_t term, const PostingCallback& fn) const {
    ForEachPosting(term, fn);
  }

  /// Streams the postings of `term`:
  /// fn(doc, tf, positions, npos); positions is nullptr at document
  /// granularity. No-op for unindexed terms. Safe for concurrent calls:
  /// the position scratch is thread-local, so each searching thread
  /// reuses its own buffer across terms without synchronization.
  template <typename Fn>
  void ForEachPosting(uint32_t term, Fn&& fn) const {
    const TermEntry* e = directory_.Find(term);
    if (e == nullptr) return;
    static thread_local std::vector<uint32_t> pos_buf;
    const std::span<const uint8_t> blob = Blob();
    DecodePostings(blob.data(), blob.size(), e->bit_offset, *e, num_docs(),
                   options_.granularity, &pos_buf, std::forward<Fn>(fn));
  }

  const TermDirectory& directory() const { return directory_; }

  const IndexStats& stats() const { return stats_; }

  /// Heap bytes of the directory plus any owned postings. A mapping is
  /// file-backed page cache, shared with other readers of the file and
  /// reclaimable at any time, so it is not counted.
  uint64_t MemoryBytes() const {
    return directory_.MemoryBytes() + blob_.size();
  }

  /// Size of the read-only mapping (the whole index file); 0 when the
  /// postings live on the heap.
  uint64_t MappedBytes() const { return mapping_.size(); }

  /// Records the open-time facts of a mapped index into `registry`
  /// (docs/OBSERVABILITY.md): one `mmap_index.maps`,
  /// `mmap_index.bytes_mapped`, and the duration of the open-time CRC
  /// sweep — the first touch of every page of the file — into
  /// `mmap_index.first_touch_micros`. Once per index: a later call, to
  /// any registry, records nothing; so does a heap-stored index or a
  /// null registry. Keeps no pointer into the registry, so queries
  /// never touch it. Per-query postings work is on SearchTrace.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Serialized size in bytes (same as what Save writes).
  uint64_t SerializedBytes() const;

  void Serialize(std::string* out) const;
  [[nodiscard]] static Result<InvertedIndex> Deserialize(std::string_view data);
  [[nodiscard]] Status Save(const std::string& path) const;

  /// Opens an index file written by Save. Returns Status for every
  /// malformed input (missing file, truncation, a bad CRC, a directory
  /// inconsistent with the blob) — never a CHECK.
  [[nodiscard]] static Result<InvertedIndex> Load(
      const std::string& path, IndexMode mode = IndexMode::kMemory);

 private:
  friend class IndexBuilder;

  // TermDirectory has no default constructor; a freshly constructed index
  // holds an empty directory at the smallest length until Build/Load
  // replaces it.
  static constexpr int kMinIntervalLengthForCtor = 4;

  /// The one open path: verifies the CRC over `file` (a whole index
  /// file), parses the prefix and records the storage. With a non-empty
  /// `mapping`, `file` is its view and the index keeps the mapping;
  /// otherwise the blob is copied to the heap.
  [[nodiscard]] static Result<InvertedIndex> FromFile(std::string_view file,
                                                      MmapFile mapping);

  /// The postings blob, worked out on every read so that a moved index
  /// never points into another object's storage.
  std::span<const uint8_t> Blob() const {
    if (mapping_.size() == 0) return blob_;
    return {mapping_.data() + blob_offset_, blob_bytes_};
  }

  IndexOptions options_;
  std::vector<uint32_t> doc_lengths_;
  TermDirectory directory_;
  // Owned postings; empty when mapping_ holds them at
  // [blob_offset_, blob_offset_ + blob_bytes_).
  std::vector<uint8_t> blob_;
  MmapFile mapping_;
  size_t blob_offset_ = 0;
  size_t blob_bytes_ = 0;
  IndexStats stats_;
  mutable uint64_t serialized_bytes_cache_ = 0;

  // Open-time facts of a mapped index (see AttachMetrics).
  uint64_t first_touch_micros_ = 0;  // open-time CRC sweep of the mapping
  bool open_facts_recorded_ = false;
};

/// Builds indexes over collections.
class IndexBuilder {
 public:
  [[nodiscard]] static Result<InvertedIndex> Build(const SequenceCollection& collection,
                                     const IndexOptions& options);
};

/// Checks that `index` was built over `collection`: the same number of
/// sequences, each of the same length. Returns InvalidArgument naming
/// the first mismatch. An index and a collection are separate files,
/// so a program that opens both calls this before its first query.
[[nodiscard]] Status CheckIndexMatchesCollection(
    const InvertedIndex& index, const SequenceCollection& collection);

}  // namespace cafe

#endif  // CAFE_INDEX_INVERTED_INDEX_H_
