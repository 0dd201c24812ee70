#include "search/chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "index/seed_extract.h"
#include "obs/trace.h"
#include "search/partitioned.h"
#include "sim/workload.h"

namespace cafe {
namespace {

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::vector<sim::PlantedQuery> queries;
};

Fixture MakeFixture(IndexGranularity granularity,
                    const std::string& spaced_seed = "") {
  sim::CollectionOptions copt;
  copt.num_sequences = 60;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 177;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 4;
  wopt.query_length = 200;
  wopt.homologs_per_query = 3;
  wopt.min_homolog_divergence = 0.03;
  wopt.max_homolog_divergence = 0.12;
  wopt.seed = 31;

  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();

  IndexOptions iopt;
  iopt.interval_length = 8;
  iopt.granularity = granularity;
  iopt.spaced_seed = spaced_seed;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  EXPECT_TRUE(index.ok()) << index.status().ToString();

  Fixture f;
  f.collection = std::move(wl->collection);
  f.index = std::move(*index);
  f.queries = std::move(wl->queries);
  return f;
}

// Every reportable field of every hit, so "identical" means identical
// bytes-on-the-wire, not just the same ids.
using HitTuple = std::tuple<uint32_t, int, double, int>;

std::vector<HitTuple> Fingerprint(const SearchResult& result) {
  std::vector<HitTuple> out;
  out.reserve(result.hits.size());
  for (const SearchHit& h : result.hits) {
    out.emplace_back(h.seq_id, h.score, h.coarse_score,
                     static_cast<int>(h.strand));
  }
  return out;
}

// The chaining stage from first principles, for one coarse ranking:
// decode each survivor's lists again, bucket its anchors by frame, take
// the best (frame, frame + 1) window with the smallest frame, and find
// the longest chain of anchors with strictly increasing query and
// subject positions by O(m^2) dynamic programming.
struct OracleOutcome {
  std::vector<uint32_t> kept;
  uint64_t anchors = 0;
};

OracleOutcome ChainOracle(const std::string& query,
                          const InvertedIndex& index,
                          const std::vector<CoarseCandidate>& candidates,
                          const SearchOptions& options) {
  const IndexOptions& iopt = index.options();
  Result<SeedExtractor> extractor =
      SeedExtractor::Create(iopt.interval_length, iopt.spaced_seed);
  EXPECT_TRUE(extractor.ok());
  std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> anchors;
  for (const CoarseCandidate& cand : candidates) anchors[cand.doc];
  extractor->ForEach(query, 1, [&](uint32_t qpos, uint32_t term) {
    index.ForEachPosting(term, [&](uint32_t doc, uint32_t,
                                   const uint32_t* positions, uint32_t n) {
      auto it = anchors.find(doc);
      if (it == anchors.end()) return;
      for (uint32_t i = 0; i < n; ++i) {
        it->second.emplace_back(qpos, positions[i]);
      }
    });
  });

  const int64_t qlen = static_cast<int64_t>(query.size());
  const int64_t width = options.frame_width;
  OracleOutcome out;
  for (const CoarseCandidate& cand : candidates) {
    const auto& all = anchors[cand.doc];
    out.anchors += all.size();
    auto frame_of = [&](const std::pair<int64_t, int64_t>& a) {
      return (a.second - a.first + qlen) / width;
    };
    std::map<int64_t, int> frames;
    for (const auto& a : all) ++frames[frame_of(a)];
    int64_t best = 0;
    int best_count = 0;
    for (const auto& [frame, count] : frames) {
      auto right = frames.find(frame + 1);
      const int combined = count + (right == frames.end() ? 0 : right->second);
      if (combined > best_count) {
        best_count = combined;
        best = frame;
      }
    }
    EXPECT_EQ(cand.diagonal, (best + 1) * width - qlen) << cand.doc;
    std::vector<std::pair<int64_t, int64_t>> window;
    for (const auto& a : all) {
      if (frame_of(a) == best || frame_of(a) == best + 1) window.push_back(a);
    }
    std::sort(window.begin(), window.end());
    std::vector<uint32_t> chain(window.size(), 1);
    uint32_t longest = 0;
    for (size_t j = 0; j < window.size(); ++j) {
      for (size_t i = 0; i < j; ++i) {
        if (window[i].first < window[j].first &&
            window[i].second < window[j].second) {
          chain[j] = std::max(chain[j], chain[i] + 1);
        }
      }
      longest = std::max(longest, chain[j]);
    }
    if (longest >= options.min_chain_score) out.kept.push_back(cand.doc);
  }
  return out;
}

TEST(ChainTest, ChainingKeepsPlantedHomologs) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;

  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->hits.empty());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
    for (uint32_t tp : q.true_positives) {
      bool found = false;
      for (const SearchHit& h : r->hits) found |= (h.seq_id == tp);
      EXPECT_TRUE(found) << "chaining dropped planted homologue " << tp;
    }
  }
}

TEST(ChainTest, HitsIdenticalWithChainingOnAndOff) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions off;
  off.max_results = 10;
  off.fine_candidates = 30;
  // The parity contract covers hits above a meaningful score floor:
  // chance-level alignments (one stray seed, score ~100 here vs ~700+
  // for the planted homologues) are exactly what chaining prunes, so a
  // top-10 padded with them would legitimately differ.
  off.min_score = 200;
  SearchOptions on = off;
  on.chain_mode = ChainMode::kFilter;

  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> a = engine.Search(q.sequence, off);
    Result<SearchResult> b = engine.Search(q.sequence, on);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
  }
}

TEST(ChainTest, DeterministicAcrossThreadCounts) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  for (ChainMode mode : {ChainMode::kOff, ChainMode::kFilter}) {
    SearchOptions base;
    base.max_results = 10;
    base.fine_candidates = 30;
    base.chain_mode = mode;

    std::vector<std::string> queries;
    for (const sim::PlantedQuery& q : f.queries) {
      queries.push_back(q.sequence);
    }
    SearchOptions one = base;
    one.threads = 1;
    Result<std::vector<SearchResult>> r1 = engine.BatchSearch(queries, one);
    SearchOptions four = base;
    four.threads = 4;
    Result<std::vector<SearchResult>> r4 = engine.BatchSearch(queries, four);
    ASSERT_TRUE(r1.ok() && r4.ok());
    ASSERT_EQ(r1->size(), r4->size());
    for (size_t i = 0; i < r1->size(); ++i) {
      EXPECT_EQ(Fingerprint((*r1)[i]), Fingerprint((*r4)[i])) << i;
      // The whole funnel — including the chain_* fields — must agree,
      // not just the reported hits.
      EXPECT_EQ((*r1)[i].trace.CountersJson(), (*r4)[i].trace.CountersJson())
          << i;
    }
  }
}

TEST(ChainTest, ChainingShrinksTheFinePhase) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 50;
  options.chain_mode = ChainMode::kFilter;

  uint64_t in = 0;
  uint64_t kept = 0;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok());
    const obs::SearchTrace& trace = r->trace;
    EXPECT_EQ(trace.chain_candidates_in,
              trace.chain_candidates_kept + trace.chain_candidates_dropped);
    EXPECT_EQ(trace.candidates_aligned, trace.chain_candidates_kept);
    EXPECT_GT(trace.chain_anchors, 0u);
    in += trace.chain_candidates_in;
    kept += trace.chain_candidates_kept;
  }
  // The planted workload's noise sequences share intervals by chance
  // but not collinear runs of them: chaining must drop a solid majority.
  EXPECT_GT(in, 0u);
  EXPECT_LE(kept * 2, in);
}

TEST(ChainTest, DocumentGranularityPassesThrough) {
  Fixture f = MakeFixture(IndexGranularity::kDocument);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;
  const sim::PlantedQuery& q = f.queries[0];
  Result<SearchResult> r = engine.Search(q.sequence, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
  // Without positions the stage is a no-op: nothing enters the funnel.
  EXPECT_EQ(r->trace.chain_candidates_in, 0u);
  EXPECT_EQ(r->trace.chain_candidates_dropped, 0u);
}

TEST(ChainTest, ChainCandidatesPassthroughWhenOff) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  std::vector<CoarseCandidate> candidates(3);
  candidates[0].doc = 5;
  candidates[1].doc = 9;
  candidates[2].doc = 1;
  SearchOptions options;  // chain_mode defaults to kOff
  ChainOutcome out = ChainCandidates("ACGTACGTACGT", candidates, f.index,
                                     options, nullptr);
  ASSERT_EQ(out.kept.size(), 3u);
  EXPECT_EQ(out.kept[0].doc, 5u);
  EXPECT_EQ(out.kept[2].doc, 1u);
  EXPECT_EQ(out.traceback_band, options.band);
}

TEST(ChainTest, MatchesTheOracle) {
  for (const std::string& seed : {std::string(), std::string("11011011011")}) {
    Fixture f = MakeFixture(IndexGranularity::kPositional, seed);
    PartitionedSearch engine(&f.collection, &f.index);
    CoarseRanker ranker(&f.index);
    for (uint32_t min_chain : {2u, 8u}) {
      SearchOptions options;
      options.max_results = 10;
      options.fine_candidates = 30;
      options.chain_mode = ChainMode::kFilter;
      options.min_chain_score = min_chain;
      for (const sim::PlantedQuery& q : f.queries) {
        const std::vector<CoarseCandidate> ranked =
            ranker.Rank(q.sequence, options.coarse_mode,
                        options.fine_candidates, options.frame_width, nullptr);
        const OracleOutcome want =
            ChainOracle(q.sequence, f.index, ranked, options);

        obs::SearchTrace trace;
        ChainOutcome got =
            ChainCandidates(q.sequence, ranked, f.index, options, &trace);
        std::vector<uint32_t> kept;
        for (const CoarseCandidate& c : got.kept) kept.push_back(c.doc);
        EXPECT_EQ(kept, want.kept) << "seed '" << seed << "' min " << min_chain;
        EXPECT_EQ(trace.chain_anchors, want.anchors);

        Result<SearchResult> r = engine.Search(q.sequence, options);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->trace.chain_anchors, want.anchors);
        EXPECT_EQ(r->trace.chain_candidates_kept, want.kept.size());
      }
    }
  }
}

TEST(ChainTest, HitCountRankingPassesThrough) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions off;
  off.max_results = 10;
  off.fine_candidates = 20;
  off.coarse_mode = CoarseRankMode::kHitCount;
  SearchOptions on = off;
  on.chain_mode = ChainMode::kFilter;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> a = engine.Search(q.sequence, off);
    Result<SearchResult> b = engine.Search(q.sequence, on);
    ASSERT_TRUE(a.ok() && b.ok());
    // Hit-count candidates carry no anchors: every one reaches the fine
    // phase, and nothing enters the chain funnel.
    EXPECT_EQ(b->trace.chain_candidates_in, 0u);
    EXPECT_EQ(b->trace.candidates_aligned, b->trace.candidates_kept);
    EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
    EXPECT_EQ(a->trace.CountersJson(), b->trace.CountersJson());
  }
}

TEST(ChainTest, SpacedSeedIndexSearchesEndToEnd) {
  // Weight-8 pattern, so the vocabulary width matches interval 8.
  Fixture f = MakeFixture(IndexGranularity::kPositional, "11011011011");
  ASSERT_EQ(f.index.options().spaced_seed, "11011011011");
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->hits.empty());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
  }
}

TEST(ChainTest, ValidateRejectsBadOptions) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  const std::string& q = f.queries[0].sequence;
  {
    SearchOptions options;
    options.max_results = 0;
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
  {
    SearchOptions options;
    options.band = -1;
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
  {
    SearchOptions options;
    options.frame_width = 0;
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
  {
    SearchOptions options;
    options.chain_mode = ChainMode::kFilter;
    options.min_chain_score = 0;
    EXPECT_TRUE(engine.Search(q, options).status().IsInvalidArgument());
  }
}

TEST(ChainTest, ParseChainModeRoundTrips) {
  Result<ChainMode> off = ParseChainMode("off");
  Result<ChainMode> filter = ParseChainMode("filter");
  ASSERT_TRUE(off.ok() && filter.ok());
  EXPECT_EQ(*off, ChainMode::kOff);
  EXPECT_EQ(*filter, ChainMode::kFilter);
  EXPECT_STREQ(ChainModeName(*off), "off");
  EXPECT_STREQ(ChainModeName(*filter), "filter");
  EXPECT_TRUE(ParseChainMode("maximal").status().IsInvalidArgument());
}

}  // namespace
}  // namespace cafe
