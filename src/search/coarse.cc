#include "search/coarse.h"

#include <algorithm>
#include <unordered_map>

#include "index/interval.h"
#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "obs/span.h"

namespace cafe {
namespace {

// Groups the query's interval occurrences by term so each postings list
// is decoded exactly once. Extraction follows the index's own plan
// (contiguous intervals or its spaced-seed pattern) at stride 1.
std::unordered_map<uint32_t, std::vector<uint32_t>> QueryTermPositions(
    std::string_view query, const IndexOptions& options) {
  std::unordered_map<uint32_t, std::vector<uint32_t>> terms;
  Result<SeedExtractor> extractor = SeedExtractor::Create(
      options.interval_length, options.spaced_seed);
  if (!extractor.ok()) return terms;  // validated at build/load time
  extractor->ForEach(query, /*stride=*/1,
                     [&](uint32_t pos, uint32_t term) {
                       terms[term].push_back(pos);
                     });
  return terms;
}

// Counts the query-side stages of the funnel: interval occurrences,
// distinct terms, and how many terms have a postings list at all (the
// rest were stopped at build time or never occurred). Null trace = no
// work beyond the check.
void TraceQueryTerms(
    const PostingSource* index,
    const std::unordered_map<uint32_t, std::vector<uint32_t>>& terms,
    obs::SearchTrace* trace) {
  if (trace == nullptr) return;
  trace->terms_distinct += terms.size();
  for (const auto& [term, qpositions] : terms) {
    trace->intervals_extracted += qpositions.size();
    if (index->FindTerm(term) == nullptr) {
      ++trace->terms_unindexed;
    } else {
      ++trace->postings_lists_touched;
    }
  }
}

std::vector<CoarseCandidate> SelectTop(std::vector<CoarseCandidate> all,
                                       uint32_t limit) {
  auto better = [](const CoarseCandidate& a, const CoarseCandidate& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  };
  if (all.size() > limit) {
    std::nth_element(all.begin(), all.begin() + limit, all.end(), better);
    all.resize(limit);
  }
  std::sort(all.begin(), all.end(), better);
  return all;
}

}  // namespace

std::vector<CoarseCandidate> CoarseRanker::Rank(
    std::string_view query, CoarseRankMode mode, uint32_t limit,
    uint32_t frame_width, obs::SpanRecorder* spans,
    obs::SearchTrace* trace) const {
  obs::Span rank_span(spans, "coarse.rank",
                      trace != nullptr ? &trace->coarse_micros : nullptr);
  std::vector<CoarseCandidate> out;
  if (mode == CoarseRankMode::kDiagonal &&
      index_->options().granularity == IndexGranularity::kPositional) {
    out = RankDiagonal(query, limit, frame_width, trace, spans);
  } else {
    out = RankHitCount(query, limit, trace, spans);
  }
  if (trace != nullptr) {
    trace->candidates_kept += out.size();
  }
  return out;
}

std::vector<CoarseCandidate> CoarseRanker::RankHitCount(
    std::string_view query, uint32_t limit, obs::SearchTrace* trace,
    obs::SpanRecorder* spans) const {
  auto terms = QueryTermPositions(query, index_->options());
  TraceQueryTerms(index_, terms, trace);

  std::vector<double> acc(index_->num_docs(), 0.0);
  std::vector<uint32_t> touched;
  uint64_t postings = 0;
  {
    obs::Span postings_span(spans, "index.postings");
    for (const auto& [term, qpositions] : terms) {
      const auto qtf = static_cast<uint32_t>(qpositions.size());
      index_->ForEachPosting(
          term, [&](uint32_t doc, uint32_t tf, const uint32_t*, uint32_t) {
            if (acc[doc] == 0.0) touched.push_back(doc);
            acc[doc] += std::min(qtf, tf);
            ++postings;
          });
    }
  }

  std::vector<CoarseCandidate> all;
  all.reserve(touched.size());
  for (uint32_t doc : touched) {
    all.push_back(CoarseCandidate{doc, acc[doc], 0, false});
  }
  if (trace != nullptr) {
    trace->postings_decoded += postings;
    trace->candidates_ranked += all.size();
    trace->candidates_discarded +=
        all.size() > limit ? all.size() - limit : 0;
  }
  return SelectTop(std::move(all), limit);
}

std::vector<CoarseCandidate> CoarseRanker::RankDiagonal(
    std::string_view query, uint32_t limit, uint32_t frame_width,
    obs::SearchTrace* trace, obs::SpanRecorder* spans) const {
  if (frame_width == 0) frame_width = 16;
  auto terms = QueryTermPositions(query, index_->options());
  TraceQueryTerms(index_, terms, trace);
  const int64_t qlen = static_cast<int64_t>(query.size());

  // (doc, frame) -> number of interval hits whose diagonal falls in the
  // frame. Frames partition the diagonal range [-qlen, doc_len).
  std::unordered_map<uint64_t, uint32_t> frame_hits;
  frame_hits.reserve(1024);
  uint64_t postings = 0;
  {
    obs::Span postings_span(spans, "index.postings");
    for (const auto& [term, qpositions] : terms) {
      index_->ForEachPosting(
          term, [&](uint32_t doc, uint32_t tf, const uint32_t* positions,
                    uint32_t npos) {
            (void)tf;
            ++postings;
            for (uint32_t pi = 0; pi < npos; ++pi) {
              for (uint32_t qpos : qpositions) {
                int64_t diag = static_cast<int64_t>(positions[pi]) -
                               static_cast<int64_t>(qpos);
                uint64_t frame =
                    static_cast<uint64_t>(diag + qlen) / frame_width;
                ++frame_hits[(uint64_t{doc} << 32) | frame];
              }
            }
          });
    }
  }

  // Combine each frame with its right neighbour so evidence straddling a
  // frame boundary is not split, and take the best combined window per
  // sequence.
  std::unordered_map<uint32_t, CoarseCandidate> best;
  best.reserve(frame_hits.size());
  for (const auto& [key, count] : frame_hits) {
    uint32_t doc = static_cast<uint32_t>(key >> 32);
    uint64_t frame = key & 0xFFFFFFFFull;
    auto right = frame_hits.find((uint64_t{doc} << 32) | (frame + 1));
    double combined =
        count + (right == frame_hits.end() ? 0 : right->second);
    int64_t diagonal =
        static_cast<int64_t>((frame + 1) * frame_width) - qlen;
    CoarseCandidate& cand = best[doc];
    if (combined > cand.score) {
      cand.doc = doc;
      cand.score = combined;
      cand.diagonal = diagonal;
      cand.has_diagonal = true;
    }
  }

  std::vector<CoarseCandidate> all;
  all.reserve(best.size());
  for (auto& [doc, cand] : best) all.push_back(cand);
  if (trace != nullptr) {
    trace->postings_decoded += postings;
    trace->candidates_ranked += all.size();
    trace->candidates_discarded +=
        all.size() > limit ? all.size() - limit : 0;
  }
  return SelectTop(std::move(all), limit);
}

}  // namespace cafe
