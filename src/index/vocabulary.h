// Term directory for the interval vocabulary.
//
// Interval terms are dense integers in [0, 4^n), so for practical interval
// lengths (n <= 12) the directory is a flat array indexed by term — no
// hashing on the query path. For longer intervals the universe outgrows
// memory and a hash map backend takes over transparently.

#ifndef CAFE_INDEX_VOCABULARY_H_
#define CAFE_INDEX_VOCABULARY_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cafe {

/// Per-term bookkeeping: where its compressed postings list starts, and
/// the statistics needed to decode it.
struct TermEntry {
  // Start of the list in the postings blob. While IndexBuilder::Build
  // runs, the term's build scratch until its list is encoded.
  uint64_t bit_offset = 0;
  uint32_t doc_count = 0;      // number of sequences containing the term
  uint32_t posting_count = 0;  // total occurrences across the collection
  uint32_t position_param = 1;  // Golomb parameter for in-sequence gaps
};

class TermDirectory {
 public:
  /// Largest interval length served by the dense (array) backend.
  static constexpr int kDenseLimit = 12;

  explicit TermDirectory(int interval_length);

  int interval_length() const { return interval_length_; }

  /// Entry for `term`, or nullptr if the term never occurred.
  const TermEntry* Find(uint32_t term) const;
  TermEntry* Find(uint32_t term) {
    return const_cast<TermEntry*>(std::as_const(*this).Find(term));
  }

  /// Entry for `term`, creating it if needed.
  TermEntry* FindOrCreate(uint32_t term);

  /// Number of terms with at least one posting.
  uint64_t NumTerms() const { return num_terms_; }

  /// Visits occupied entries in increasing term order:
  /// fn(uint32_t term, const TermEntry&).
  template <typename Fn>
  void ForEachTerm(Fn&& fn) const {
    if (dense_) {
      for (uint64_t t = 0; t < dense_entries_.size(); ++t) {
        if (dense_entries_[t].posting_count > 0) {
          fn(static_cast<uint32_t>(t), dense_entries_[t]);
        }
      }
    } else {
      for (uint32_t t : SortedSparseTerms()) {
        fn(t, sparse_entries_.at(t));
      }
    }
  }

  /// Mutable variant of ForEachTerm, same order.
  template <typename Fn>
  void ForEachTermMutable(Fn&& fn) {
    if (dense_) {
      for (uint64_t t = 0; t < dense_entries_.size(); ++t) {
        if (dense_entries_[t].posting_count > 0) {
          fn(static_cast<uint32_t>(t), &dense_entries_[t]);
        }
      }
    } else {
      for (uint32_t t : SortedSparseTerms()) {
        fn(t, &sparse_entries_.at(t));
      }
    }
  }

  /// Removes a term (used by index stopping).
  void Erase(uint32_t term);

  /// Approximate resident bytes of the directory itself.
  uint64_t MemoryBytes() const;

 private:
  std::vector<uint32_t> SortedSparseTerms() const;

  int interval_length_;
  bool dense_;
  uint64_t num_terms_ = 0;
  std::vector<TermEntry> dense_entries_;
  std::unordered_map<uint32_t, TermEntry> sparse_entries_;
};

}  // namespace cafe

#endif  // CAFE_INDEX_VOCABULARY_H_
