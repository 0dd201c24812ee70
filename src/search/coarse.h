// The coarse phase of partitioned search: rank collection sequences by
// interval evidence against the query, using only the compressed inverted
// index — no sequence data is touched. This is the query's only pass over
// the postings: in diagonal mode on a positional index each surviving
// candidate also carries the seed matches of its best diagonal window,
// and the chaining stage (search/chain.h) reads them from there. Any
// other ranking carries none, and chaining passes it through.

#ifndef CAFE_SEARCH_COARSE_H_
#define CAFE_SEARCH_COARSE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "index/posting_source.h"
#include "search/engine.h"

namespace cafe {

/// A seed match between the query and a candidate sequence.
struct Anchor {
  uint32_t qpos = 0;
  uint32_t spos = 0;
};

/// A sequence the coarse phase considers promising.
struct CoarseCandidate {
  uint32_t doc = 0;
  /// Interval-evidence score (hit count, or best combined frame count).
  double score = 0.0;
  /// Best-evidence alignment diagonal (target pos - query pos); only
  /// meaningful when has_diagonal is set (diagonal mode on a positional
  /// index).
  int64_t diagonal = 0;
  bool has_diagonal = false;
  /// Diagonal mode only: the seed matches in the (frame, frame + 1)
  /// window that set `score` and `diagonal`, in no particular order.
  std::vector<Anchor> anchors;
  /// Diagonal mode only: seed matches with this sequence in any frame.
  uint64_t anchor_count = 0;
};

class CoarseRanker {
 public:
  explicit CoarseRanker(const PostingSource* index) : index_(index) {}

  /// Ranks all matching sequences and returns the best `limit` in
  /// descending score order. `mode` falls back to kHitCount when the
  /// index lacks positions. When `spans` is non-null, records the
  /// coarse.rank span with a nested index.postings span around the
  /// postings decode loop. When `trace` is non-null, adds the coarse
  /// stages of the pruning funnel (interval/term counts, lists touched,
  /// postings decoded, candidates ranked/kept/discarded) and
  /// coarse_micros, timed by the same clock reads as coarse.rank.
  std::vector<CoarseCandidate> Rank(std::string_view query,
                                    CoarseRankMode mode, uint32_t limit,
                                    uint32_t frame_width,
                                    obs::SpanRecorder* spans,
                                    obs::SearchTrace* trace = nullptr) const;

 private:
  std::vector<CoarseCandidate> RankHitCount(std::string_view query,
                                            uint32_t limit,
                                            obs::SearchTrace* trace,
                                            obs::SpanRecorder* spans) const;
  std::vector<CoarseCandidate> RankDiagonal(std::string_view query,
                                            uint32_t limit,
                                            uint32_t frame_width,
                                            obs::SearchTrace* trace,
                                            obs::SpanRecorder* spans) const;

  const PostingSource* index_;
};

}  // namespace cafe

#endif  // CAFE_SEARCH_COARSE_H_
