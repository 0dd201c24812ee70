// FastaLikeSearch — a scan-based diagonal-histogram baseline in the style
// of FASTA (Pearson & Lipman, 1988): short k-tuple lookups build a
// per-sequence diagonal histogram; the densest diagonal region is then
// rescored with a banded alignment. Like the BLAST-like engine it reads
// the entire collection per query.

#ifndef CAFE_SEARCH_FASTA_LIKE_H_
#define CAFE_SEARCH_FASTA_LIKE_H_

#include "collection/collection.h"
#include "search/engine.h"

namespace cafe {

class FastaLikeSearch final : public SearchEngine {
 public:
  /// k-tuple length (FASTA's ktup; the classic nucleotide choice).
  static constexpr int kKtup = 6;
  /// Minimum diagonal hit count for a sequence to be rescored.
  static constexpr uint32_t kMinDiagonalHits = 2;

  explicit FastaLikeSearch(const SequenceCollection* collection)
      : collection_(collection) {}

  std::string name() const override { return "fasta-like"; }

  Result<SearchResult> Search(std::string_view query,
                              const SearchOptions& options) override;

  /// Stateless apart from the collection pointer; concurrent queries
  /// are safe.
  bool SupportsConcurrentSearch() const override { return true; }

 private:
  const SequenceCollection* collection_;
};

}  // namespace cafe

#endif  // CAFE_SEARCH_FASTA_LIKE_H_
