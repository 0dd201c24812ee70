// The coarse phase of partitioned search: rank collection sequences by
// interval evidence against the query, using only the compressed inverted
// index — no sequence data is touched.

#ifndef CAFE_SEARCH_COARSE_H_
#define CAFE_SEARCH_COARSE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "index/posting_source.h"
#include "search/engine.h"

namespace cafe {

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
