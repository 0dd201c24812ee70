#include "search/blast_like.h"

#include <unordered_map>

#include "align/smith_waterman.h"
#include "align/xdrop.h"
#include "index/interval.h"

namespace cafe {

Result<SearchResult> BlastLikeSearch::Search(std::string_view query,
                                             const SearchOptions& options) {
  CAFE_RETURN_IF_ERROR(options.Validate());
  constexpr int w = kSeedLength;
  static_assert(w >= kMinIntervalLength && w <= kMaxIntervalLength);
  if (query.size() < static_cast<size_t>(w)) {
    return Status::InvalidArgument("query shorter than the seed length");
  }

  SearchResult result;
  obs::SearchTrace& trace = result.trace;
  obs::Span search_span(options.spans, "search", &trace.total_micros);
  trace.queries = 1;
  Aligner aligner(options.scoring);
  const PairScoreTable& table = aligner.table();
  TopHits top(options.max_results);

  // Query word table: seed term -> query positions.
  std::unordered_map<uint32_t, std::vector<uint32_t>> words;
  ForEachInterval(query, w, /*stride=*/1,
                  [&](uint32_t pos, uint32_t term) {
                    words[term].push_back(pos);
                  });
  trace.terms_distinct = words.size();
  for (const auto& [term, positions] : words) {
    trace.intervals_extracted += positions.size();
  }

  std::string seq;
  const uint32_t num_docs = collection_->NumSequences();
  // Per-sequence "how far has this diagonal been extended" map, to avoid
  // re-extending every seed inside an already-found segment.
  std::unordered_map<int64_t, uint32_t> diag_end;
  for (uint32_t doc = 0; doc < num_docs; ++doc) {
    CAFE_RETURN_IF_ERROR(collection_->GetSequence(doc, &seq));
    diag_end.clear();

    int best_score = 0;
    int best_ungapped = 0;
    int64_t best_diag = 0;
    bool triggered = false;

    ForEachInterval(seq, w, /*stride=*/1, [&](uint32_t tpos, uint32_t term) {
      auto it = words.find(term);
      if (it == words.end()) return;
      for (uint32_t qpos : it->second) {
        int64_t diag = static_cast<int64_t>(tpos) - qpos;
        auto de = diag_end.find(diag);
        if (de != diag_end.end() && tpos < de->second) continue;
        UngappedSegment seg =
            XDropExtend(query, seq, qpos, tpos, static_cast<uint32_t>(w),
                        table, kXDrop);
        diag_end[diag] = seg.target_end;
        if (seg.score > best_ungapped) {
          best_ungapped = seg.score;
          best_diag = static_cast<int64_t>(seg.target_begin) -
                      seg.query_begin;
        }
        if (seg.score >= kGappedTrigger) triggered = true;
      }
    });

    if (best_ungapped <= 0) continue;
    ++trace.candidates_ranked;
    if (triggered) {
      best_score =
          aligner.BandedScore(query, seq, best_diag, options.band);
      ++trace.candidates_aligned;
    } else {
      best_score = best_ungapped;
    }
    if (best_score < options.min_score) continue;

    SearchHit hit;
    hit.seq_id = doc;
    hit.score = best_score;
    hit.coarse_score = best_ungapped;
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
