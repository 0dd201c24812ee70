// BlastLikeSearch — a scan-based seed-and-extend baseline in the style of
// BLAST 1 (Altschul et al., 1990): hash the query's words, scan every
// collection sequence for word hits, extend hits ungapped with an X-drop,
// and run a banded gapped alignment where the ungapped segment is strong.
// No index: the whole collection is read on every query, which is exactly
// the cost profile the paper's partitioned approach removes.

#ifndef CAFE_SEARCH_BLAST_LIKE_H_
#define CAFE_SEARCH_BLAST_LIKE_H_

#include "collection/collection.h"
#include "search/engine.h"

namespace cafe {

class BlastLikeSearch final : public SearchEngine {
 public:
  /// Word (seed) length; BLASTN's classic default.
  static constexpr int kSeedLength = 11;
  /// X-drop threshold for ungapped extension, in score units.
  static constexpr int kXDrop = 20;
  /// Ungapped score that triggers a gapped (banded) alignment.
  static constexpr int kGappedTrigger = 40;

  explicit BlastLikeSearch(const SequenceCollection* collection)
      : collection_(collection) {}

  std::string name() const override { return "blast-like"; }

  Result<SearchResult> Search(std::string_view query,
                              const SearchOptions& options) override;

  /// Stateless apart from the collection pointer; concurrent queries
  /// are safe.
  bool SupportsConcurrentSearch() const override { return true; }

 private:
  const SequenceCollection* collection_;
};

}  // namespace cafe

#endif  // CAFE_SEARCH_BLAST_LIKE_H_
