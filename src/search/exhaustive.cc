#include "search/exhaustive.h"

#include "align/smith_waterman.h"

namespace cafe {

Result<SearchResult> ExhaustiveSearch::Search(std::string_view query,
                                              const SearchOptions& options) {
  CAFE_RETURN_IF_ERROR(options.Validate());
  if (query.empty()) {
    return Status::InvalidArgument("empty query");
  }

  SearchResult result;
  obs::SearchTrace& trace = result.trace;
  obs::Span search_span(options.spans, "search", &trace.total_micros);
  trace.queries = 1;
  Aligner aligner(options.scoring);
  TopHits top(options.max_results);
  std::string seq;
  const uint32_t num_docs = collection_->NumSequences();
  for (uint32_t doc = 0; doc < num_docs; ++doc) {
    CAFE_RETURN_IF_ERROR(collection_->GetSequence(doc, &seq));
    int score = aligner.ScoreOnly(query, seq);
    ++trace.candidates_aligned;
    if (score < options.min_score) continue;
    SearchHit hit;
    hit.seq_id = doc;
    hit.score = score;
    top.Add(std::move(hit));
  }
  result.hits = top.Take();

  // No coarse phase: every sequence is a kept candidate.
  trace.candidates_ranked = num_docs;
  trace.candidates_kept = num_docs;
  trace.cells_computed = aligner.cells_computed();
  CAFE_RETURN_IF_ERROR(
      ReportHits(*collection_, query, options, options.band, &result));
  // No coarse phase to split out: the whole scan is the fine stage.
  search_span.End();
  trace.fine_micros = trace.total_micros;
  return result;
}

}  // namespace cafe
