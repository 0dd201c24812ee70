#include "search/chain.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <unordered_map>

#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cafe {
namespace {

std::atomic<obs::Counter*> g_invocations{nullptr};
std::atomic<obs::Counter*> g_anchors{nullptr};
std::atomic<obs::Counter*> g_kept{nullptr};
std::atomic<obs::Counter*> g_dropped{nullptr};

/// A seed match between the query and one candidate sequence.
struct Anchor {
  uint32_t qpos;
  uint32_t spos;
};

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

ChainOutcome Passthrough(std::vector<CoarseCandidate> candidates, int band) {
  ChainOutcome out;
  out.kept = std::move(candidates);
  out.band_hints.assign(out.kept.size(), band);
  return out;
}

}  // namespace

ChainOutcome ChainCandidates(std::string_view query,
                             std::vector<CoarseCandidate> candidates,
                             const PostingSource& index,
                             const SearchOptions& options,
                             obs::SearchTrace* trace) {
  const IndexOptions& iopt = index.options();
  if (options.chain_mode != ChainMode::kFilter || candidates.empty() ||
      iopt.granularity != IndexGranularity::kPositional) {
    return Passthrough(std::move(candidates), options.band);
  }
  Result<SeedExtractor> extractor =
      SeedExtractor::Create(iopt.interval_length, iopt.spaced_seed);
  if (!extractor.ok()) {
    // A loaded index has validated options; unreachable in practice.
    return Passthrough(std::move(candidates), options.band);
  }
  obs::Span chain_span(options.spans, "chain.filter",
                       trace != nullptr ? &trace->chain_micros : nullptr);

  // Query term -> positions, with the index's own extraction plan (the
  // query side always extracts at stride 1, like the coarse phase).
  std::unordered_map<uint32_t, std::vector<uint32_t>> terms;
  extractor->ForEach(query, /*stride=*/1,
                     [&](uint32_t pos, uint32_t term) {
                       terms[term].push_back(pos);
                     });

  // Anchor gathering, restricted to the coarse candidate set: one more
  // pass over the query's postings lists, but only (doc, pos) pairs of
  // surviving candidates are materialized.
  std::unordered_map<uint32_t, uint32_t> slot_of;
  slot_of.reserve(candidates.size() * 2);
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    slot_of.emplace(candidates[i].doc, i);
  }
  std::vector<std::vector<Anchor>> anchors(candidates.size());
  for (const auto& [term, qpositions] : terms) {
    const std::vector<uint32_t>& qpos_list = qpositions;
    index.ForEachPosting(
        term, [&](uint32_t doc, uint32_t /*tf*/, const uint32_t* positions,
                  uint32_t npos) {
          auto it = slot_of.find(doc);
          if (it == slot_of.end()) return;
          std::vector<Anchor>& a = anchors[it->second];
          for (uint32_t pi = 0; pi < npos; ++pi) {
            for (uint32_t qpos : qpos_list) {
              a.push_back(Anchor{qpos, positions[pi]});
            }
          }
        });
  }

  const int64_t qlen = static_cast<int64_t>(query.size());
  const uint32_t frame_width =
      options.frame_width == 0 ? 16 : options.frame_width;
  ChainOutcome out;
  out.kept.reserve(candidates.size());
  uint64_t total_anchors = 0;
  std::vector<Anchor> filtered;
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::vector<Anchor>& a = anchors[i];
    total_anchors += a.size();
    uint32_t chain_len = 0;
    int hint = options.band;
    if (!a.empty()) {
      // Diagonal filter: bucket anchors into frames of the diagonal
      // range (mirroring the coarse ranker's geometry) and keep only
      // the best combined (frame, frame+1) window. Ordered map =>
      // deterministic smallest-frame tie-break.
      std::map<uint64_t, uint32_t> frames;
      auto frame_of = [&](const Anchor& an) {
        int64_t diag =
            static_cast<int64_t>(an.spos) - static_cast<int64_t>(an.qpos);
        return static_cast<uint64_t>(diag + qlen) / frame_width;
      };
      for (const Anchor& an : a) ++frames[frame_of(an)];
      uint64_t best_frame = 0;
      uint32_t best_count = 0;
      for (const auto& [frame, count] : frames) {
        auto right = frames.find(frame + 1);
        uint32_t combined =
            count + (right == frames.end() ? 0 : right->second);
        if (combined > best_count) {
          best_count = combined;
          best_frame = frame;
        }
      }
      filtered.clear();
      for (const Anchor& an : a) {
        uint64_t frame = frame_of(an);
        if (frame == best_frame || frame == best_frame + 1) {
          filtered.push_back(an);
        }
      }
      chain_len = LongestChain(&filtered);

      // Band hint: half-width covering the filtered diagonal window
      // (plus the seed's own span) around the candidate's diagonal.
      const int64_t lo =
          static_cast<int64_t>(best_frame) * frame_width - qlen;
      const int64_t hi =
          static_cast<int64_t>(best_frame + 2) * frame_width - qlen +
          extractor->window();
      const int64_t center =
          candidates[i].has_diagonal ? candidates[i].diagonal : (lo + hi) / 2;
      const int64_t spread = std::max(center - lo, hi - center);
      hint = static_cast<int>(std::max<int64_t>(options.band, spread));
    }
    if (chain_len >= options.min_chain_score) {
      out.kept.push_back(candidates[i]);
      out.band_hints.push_back(hint);
    }
  }

  const uint64_t dropped = candidates.size() - out.kept.size();
  if (trace != nullptr) {
    trace->chain_candidates_in += candidates.size();
    trace->chain_anchors += total_anchors;
    trace->chain_candidates_kept += out.kept.size();
    trace->chain_candidates_dropped += dropped;
  }
  internal::RecordChain(total_anchors, out.kept.size(), dropped);
  return out;
}

void AttachChainMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    g_invocations.store(nullptr, std::memory_order_release);
    g_anchors.store(nullptr, std::memory_order_release);
    g_kept.store(nullptr, std::memory_order_release);
    g_dropped.store(nullptr, std::memory_order_release);
    return;
  }
  g_invocations.store(registry->GetCounter("chain.invocations"),
                      std::memory_order_release);
  g_anchors.store(registry->GetCounter("chain.anchors"),
                  std::memory_order_release);
  g_kept.store(registry->GetCounter("chain.candidates_kept"),
               std::memory_order_release);
  g_dropped.store(registry->GetCounter("chain.candidates_dropped"),
                  std::memory_order_release);
}

namespace internal {

void RecordChain(uint64_t anchors, uint64_t kept, uint64_t dropped) {
  obs::Counter* invocations = g_invocations.load(std::memory_order_acquire);
  if (invocations == nullptr) return;
  invocations->Increment();
  if (anchors != 0) {
    g_anchors.load(std::memory_order_acquire)->Add(anchors);
  }
  if (kept != 0) {
    g_kept.load(std::memory_order_acquire)->Add(kept);
  }
  if (dropped != 0) {
    g_dropped.load(std::memory_order_acquire)->Add(dropped);
  }
}

}  // namespace internal

}  // namespace cafe
