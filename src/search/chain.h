// The chaining middle stage of partitioned search: between the coarse
// interval ranking and the fine (DP) alignment phase, take each coarse
// candidate's seed matches in its best diagonal window as (query
// position, subject position) anchors and keep only the candidates
// whose anchors form a collinear chain — the localization step the
// positional-index DNA engines build on (arXiv:1307.0194,
// arXiv:1006.4114). The anchors come with the candidates: diagonal
// ranking on a positional index gathers them in its one pass over the
// postings (search/coarse.h), so this stage decodes nothing. Candidates
// of any other ranking carry no anchors and pass through untouched.
//
// The stage is deliberately conservative: it only *drops* candidates
// (never reorders or rescores them), and its traceback band only widens
// the traceback window (candidate scoring keeps the caller's band), so
// the surviving hits are byte-identical to what the same options
// produce with chaining off whenever the dropped candidates were not
// going to be reported — the property bench/baselines/chain.json gates.

#ifndef CAFE_SEARCH_CHAIN_H_
#define CAFE_SEARCH_CHAIN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "index/posting_source.h"
#include "search/coarse.h"
#include "search/engine.h"

namespace cafe {

/// Output of the chaining stage.
struct ChainOutcome {
  /// Surviving candidates, in the coarse ranking's order.
  std::vector<CoarseCandidate> kept;
  /// Banded-alignment half-width for the traceback of every kept
  /// candidate, never below the requested band. When chaining ran it is
  /// max(band, frame_width + seed span): from a candidate's diagonal
  /// (the middle edge of its (frame, frame + 1) window) that covers the
  /// window its anchors came from plus one seed, so reported alignments
  /// are not clipped to a window narrower than the chain. Candidate
  /// *scoring* keeps the caller's band so the ranking is identical with
  /// chaining on or off.
  int traceback_band = 0;
};

/// Runs the collinear-chaining stage over the anchors the candidates
/// carry. Passes every candidate through untouched (traceback_band =
/// options.band) when chaining is off, there are no candidates, or they
/// carry no anchors (hit-count ranking, or an index without positions);
/// when active, records the chaining funnel into `trace` (chain_micros,
/// chain_candidates_in/anchors/kept/dropped), the one record of this
/// stage. Deterministic: depends only on (index, candidates, options),
/// never on thread count; `query` is not read.
ChainOutcome ChainCandidates(std::string_view query,
                             std::vector<CoarseCandidate> candidates,
                             const PostingSource& index,
                             const SearchOptions& options,
                             obs::SearchTrace* trace);

}  // namespace cafe

#endif  // CAFE_SEARCH_CHAIN_H_
