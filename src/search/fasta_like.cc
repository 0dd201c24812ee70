#include "search/fasta_like.h"

#include "align/smith_waterman.h"
#include "index/interval.h"

namespace cafe {

Result<SearchResult> FastaLikeSearch::Search(std::string_view query,
                                             const SearchOptions& options) {
  CAFE_RETURN_IF_ERROR(options.Validate());
  constexpr int k = kKtup;
  // The k-tuple lookup below is a dense table of 4^k entries.
  static_assert(k >= kMinIntervalLength && k <= 12);
  if (query.size() < static_cast<size_t>(k)) {
    return Status::InvalidArgument("query shorter than ktup");
  }

  SearchResult result;
  obs::SearchTrace& trace = result.trace;
  obs::Span search_span(options.spans, "search", &trace.total_micros);
  trace.queries = 1;
  Aligner aligner(options.scoring);
  TopHits top(options.max_results);

  // Dense k-tuple lookup: term -> query positions.
  std::vector<std::vector<uint32_t>> lookup(VocabularyUniverse(k));
  ForEachInterval(query, k, /*stride=*/1,
                  [&](uint32_t pos, uint32_t term) {
                    lookup[term].push_back(pos);
                    ++trace.intervals_extracted;
                    if (lookup[term].size() == 1) ++trace.terms_distinct;
                  });

  const int64_t qlen = static_cast<int64_t>(query.size());
  std::vector<uint32_t> histo;
  std::vector<int64_t> touched;
  std::string seq;
  const uint32_t num_docs = collection_->NumSequences();
  for (uint32_t doc = 0; doc < num_docs; ++doc) {
    CAFE_RETURN_IF_ERROR(collection_->GetSequence(doc, &seq));

    // Diagonal histogram (FASTA init phase).
    const size_t diag_range = query.size() + seq.size();
    if (histo.size() < diag_range) histo.resize(diag_range, 0);
    touched.clear();
    ForEachInterval(seq, k, /*stride=*/1, [&](uint32_t tpos, uint32_t term) {
      const std::vector<uint32_t>& qpositions = lookup[term];
      for (uint32_t qpos : qpositions) {
        int64_t idx = static_cast<int64_t>(tpos) - qpos + qlen;
        if (histo[idx]++ == 0) touched.push_back(idx);
      }
    });

    uint32_t best_hits = 0;
    int64_t best_diag = 0;
    for (int64_t idx : touched) {
      if (histo[idx] > best_hits) {
        best_hits = histo[idx];
        best_diag = idx - qlen;
      }
    }
    for (int64_t idx : touched) histo[idx] = 0;

    if (best_hits < kMinDiagonalHits) continue;
    ++trace.candidates_ranked;

    // Rescore the best region with a banded alignment (FASTA opt phase).
    int score = aligner.BandedScore(query, seq, best_diag, options.band);
    ++trace.candidates_aligned;
    if (score < options.min_score) continue;

    SearchHit hit;
    hit.seq_id = doc;
    hit.score = score;
    hit.coarse_score = best_hits;
    top.Add(std::move(hit));
  }
  result.hits = top.Take();

  trace.candidates_kept = trace.candidates_ranked;
  trace.cells_computed = aligner.cells_computed();
  CAFE_RETURN_IF_ERROR(
      ReportHits(*collection_, query, options, options.band, &result));
  // No coarse phase to split out: the whole scan is the fine stage.
  search_span.End();
  trace.fine_micros = trace.total_micros;
  return result;
}

}  // namespace cafe
