#include "search/chain.h"

#include <algorithm>

#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "obs/span.h"

namespace cafe {
namespace {

// Length of the longest collinear chain: anchors usable one after
// another with strictly increasing query AND subject positions.
// Classic reduction to longest-strictly-increasing-subsequence: after
// sorting by (qpos asc, spos desc), a strictly increasing subsequence
// of spos can never take two anchors with equal qpos, so patience
// tails with lower_bound give the answer in O(m log m).
uint32_t LongestChain(std::vector<Anchor>* anchors) {
  std::sort(anchors->begin(), anchors->end(),
            [](const Anchor& a, const Anchor& b) {
              if (a.qpos != b.qpos) return a.qpos < b.qpos;
              return a.spos > b.spos;
            });
  std::vector<uint32_t> tails;
  for (const Anchor& a : *anchors) {
    auto it = std::lower_bound(tails.begin(), tails.end(), a.spos);
    if (it == tails.end()) {
      tails.push_back(a.spos);
    } else {
      *it = a.spos;
    }
  }
  return static_cast<uint32_t>(tails.size());
}

}  // namespace

ChainOutcome ChainCandidates(std::string_view /*query*/,
                             std::vector<CoarseCandidate> candidates,
                             const PostingSource& index,
                             const SearchOptions& options,
                             obs::SearchTrace* trace) {
  ChainOutcome out;
  out.traceback_band = options.band;
  // One Rank call gives every candidate anchors or none.
  if (options.chain_mode != ChainMode::kFilter || candidates.empty() ||
      !candidates.front().has_diagonal) {
    out.kept = std::move(candidates);
    return out;
  }
  obs::Span chain_span(options.spans, "chain.filter",
                       trace != nullptr ? &trace->chain_micros : nullptr);
  const IndexOptions& iopt = index.options();
  Result<SeedExtractor> seed =
      SeedExtractor::Create(iopt.interval_length, iopt.spaced_seed);
  // A loaded index has validated options, so the fallback never runs.
  const int seed_span = seed.ok() ? seed->window() : iopt.interval_length;
  const int64_t frame_width =
      options.frame_width == 0 ? 16 : options.frame_width;
  out.traceback_band = static_cast<int>(
      std::max<int64_t>(options.band, frame_width + seed_span));

  out.kept.reserve(candidates.size());
  uint64_t total_anchors = 0;
  for (CoarseCandidate& cand : candidates) {
    total_anchors += cand.anchor_count;
    if (LongestChain(&cand.anchors) >= options.min_chain_score) {
      out.kept.push_back(std::move(cand));
    }
  }

  if (trace != nullptr) {
    trace->chain_candidates_in += candidates.size();
    trace->chain_anchors += total_anchors;
    trace->chain_candidates_kept += out.kept.size();
    trace->chain_candidates_dropped += candidates.size() - out.kept.size();
  }
  return out;
}

}  // namespace cafe
