#include "search/coarse.h"

#include <algorithm>
#include <utility>

#include "index/interval.h"
#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "obs/span.h"

namespace cafe {
namespace {

// The query's interval occurrences as sorted (term, position) pairs, so
// each term's positions form one run and its postings list is decoded
// exactly once. Extraction follows the index's own plan (contiguous
// intervals or its spaced-seed pattern) at stride 1.
using Occurrences = std::vector<std::pair<uint32_t, uint32_t>>;

Occurrences QueryOccurrences(std::string_view query,
                             const IndexOptions& options) {
  Occurrences occurrences;
  Result<SeedExtractor> extractor = SeedExtractor::Create(
      options.interval_length, options.spaced_seed);
  if (!extractor.ok()) return occurrences;  // validated at build/load time
  extractor->ForEach(query, /*stride=*/1,
                     [&](uint32_t pos, uint32_t term) {
                       occurrences.emplace_back(term, pos);
                     });
  std::sort(occurrences.begin(), occurrences.end());
  return occurrences;
}

// Calls fn(term, first, last) once per distinct term, in ascending term
// order; [first, last) are its occurrences, by ascending position.
template <typename Fn>
void ForEachTerm(const Occurrences& occurrences, Fn&& fn) {
  for (auto first = occurrences.begin(); first != occurrences.end();) {
    const uint32_t term = first->first;
    auto last = std::find_if(first, occurrences.end(),
                             [term](const auto& o) { return o.first != term; });
    fn(term, first, last);
    first = last;
  }
}

// Counts the query-side stages of the funnel: interval occurrences,
// distinct terms, and how many terms have a postings list at all (the
// rest were stopped at build time or never occurred). Null trace = no
// work beyond the check.
void TraceQueryTerms(const PostingSource* index,
                     const Occurrences& occurrences,
                     obs::SearchTrace* trace) {
  if (trace == nullptr) return;
  trace->intervals_extracted += occurrences.size();
  ForEachTerm(occurrences, [&](uint32_t term, auto, auto) {
    ++trace->terms_distinct;
    if (index->FindTerm(term) == nullptr) {
      ++trace->terms_unindexed;
    } else {
      ++trace->postings_lists_touched;
    }
  });
}

// A sequence's coarse evidence before the top-k cut. Only the survivors
// become CoarseCandidates, which are larger because they carry anchors.
struct Scored {
  double score;
  int64_t diagonal;
  uint32_t doc;
};

std::vector<CoarseCandidate> SelectTop(std::vector<Scored> all,
                                       uint32_t limit, bool has_diagonal) {
  auto better = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  };
  if (all.size() > limit) {
    std::nth_element(all.begin(), all.begin() + limit, all.end(), better);
    all.resize(limit);
  }
  std::sort(all.begin(), all.end(), better);
  std::vector<CoarseCandidate> top(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    top[i].doc = all[i].doc;
    top[i].score = all[i].score;
    top[i].diagonal = all[i].diagonal;
    top[i].has_diagonal = has_diagonal;
  }
  return top;
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
  const Occurrences occurrences =
      QueryOccurrences(query, index_->options());
  TraceQueryTerms(index_, occurrences, trace);

  std::vector<double> acc(index_->num_docs(), 0.0);
  std::vector<uint32_t> touched;
  uint64_t postings = 0;
  {
    obs::Span postings_span(spans, "index.postings");
    ForEachTerm(occurrences, [&](uint32_t term, auto first, auto last) {
      const auto qtf = static_cast<uint32_t>(last - first);
      index_->ForEachPosting(
          term, [&](uint32_t doc, uint32_t tf, const uint32_t*, uint32_t) {
            if (acc[doc] == 0.0) touched.push_back(doc);
            acc[doc] += std::min(qtf, tf);
            ++postings;
          });
    });
  }

  std::vector<Scored> all;
  all.reserve(touched.size());
  for (uint32_t doc : touched) {
    all.push_back(Scored{acc[doc], 0, doc});
  }
  if (trace != nullptr) {
    trace->postings_decoded += postings;
    trace->candidates_ranked += all.size();
    trace->candidates_discarded +=
        all.size() > limit ? all.size() - limit : 0;
  }
  return SelectTop(std::move(all), limit, /*has_diagonal=*/false);
}

std::vector<CoarseCandidate> CoarseRanker::RankDiagonal(
    std::string_view query, uint32_t limit, uint32_t frame_width,
    obs::SearchTrace* trace, obs::SpanRecorder* spans) const {
  if (frame_width == 0) frame_width = 16;
  const Occurrences occurrences =
      QueryOccurrences(query, index_->options());
  TraceQueryTerms(index_, occurrences, trace);
  const int64_t qlen = static_cast<int64_t>(query.size());

  // One entry per interval hit: its anchor, keyed by doc << 32 | frame.
  // Frames partition the diagonal range [-qlen, doc_len).
  struct FrameHit {
    uint64_t key;
    Anchor anchor;
  };
  std::vector<FrameHit> hits;
  uint64_t postings = 0;
  {
    obs::Span postings_span(spans, "index.postings");
    ForEachTerm(occurrences, [&](uint32_t term, auto first, auto last) {
      index_->ForEachPosting(
          term, [&](uint32_t doc, uint32_t, const uint32_t* positions,
                    uint32_t npos) {
            ++postings;
            for (uint32_t pi = 0; pi < npos; ++pi) {
              for (auto q = first; q != last; ++q) {
                const int64_t diag = static_cast<int64_t>(positions[pi]) -
                                     static_cast<int64_t>(q->second);
                const uint64_t frame =
                    static_cast<uint64_t>(diag + qlen) / frame_width;
                hits.push_back(FrameHit{(uint64_t{doc} << 32) | frame,
                                        Anchor{q->second, positions[pi]}});
              }
            }
          });
    });
  }
  std::sort(hits.begin(), hits.end(),
            [](const FrameHit& a, const FrameHit& b) { return a.key < b.key; });
  auto end_of_run = [&](size_t i, uint64_t key) {
    while (i < hits.size() && hits[i].key == key) ++i;
    return i;
  };

  // Per sequence, combine each frame with its right neighbour so evidence
  // straddling a frame boundary is not split, and keep the best combined
  // window. Frames ascend within a sequence, so a tie keeps the smallest.
  std::vector<Scored> all;
  for (size_t i = 0; i < hits.size();) {
    Scored best{0.0, 0, static_cast<uint32_t>(hits[i].key >> 32)};
    while (i < hits.size() && (hits[i].key >> 32) == best.doc) {
      const uint64_t key = hits[i].key;
      const size_t next = end_of_run(i, key);
      const auto combined = static_cast<double>(end_of_run(next, key + 1) - i);
      if (combined > best.score) {
        best.score = combined;
        best.diagonal =
            static_cast<int64_t>(((key & 0xFFFFFFFFull) + 1) * frame_width) -
            qlen;
      }
      i = next;
    }
    all.push_back(best);
  }
  if (trace != nullptr) {
    trace->postings_decoded += postings;
    trace->candidates_ranked += all.size();
    trace->candidates_discarded +=
        all.size() > limit ? all.size() - limit : 0;
  }

  // Each survivor takes its window's anchors (the window starts one frame
  // left of its diagonal) and its anchor total out of the sorted hits.
  std::vector<CoarseCandidate> top =
      SelectTop(std::move(all), limit, /*has_diagonal=*/true);
  auto lower = [&](uint64_t key) {
    return std::lower_bound(
        hits.begin(), hits.end(), key,
        [](const FrameHit& h, uint64_t k) { return h.key < k; });
  };
  for (CoarseCandidate& cand : top) {
    const uint64_t doc_key = uint64_t{cand.doc} << 32;
    const uint64_t frame =
        static_cast<uint64_t>(cand.diagonal + qlen) / frame_width - 1;
    cand.anchor_count = static_cast<uint64_t>(
        lower(doc_key + (uint64_t{1} << 32)) - lower(doc_key));
    const auto first = lower(doc_key | frame);
    const auto last = lower(doc_key | (frame + 2));
    cand.anchors.reserve(static_cast<size_t>(last - first));
    for (auto it = first; it != last; ++it) cand.anchors.push_back(it->anchor);
  }
  return top;
}

}  // namespace cafe
