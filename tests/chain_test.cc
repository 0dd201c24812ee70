#include "search/chain.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
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
      // The whole funnel — including the chain.* stages — must agree,
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
  EXPECT_EQ(out.band_hints,
            (std::vector<int>(3, options.band)));
}

TEST(ChainTest, RecordsProcessWideCounters) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  obs::MetricsRegistry registry;
  AttachChainMetrics(&registry);
  SearchOptions options;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  AttachChainMetrics(nullptr);  // detach before the registry dies
  obs::MetricsSnapshot snap = registry.SnapshotData();
  EXPECT_GE(snap.counters["chain.invocations"], 1u);
  EXPECT_GT(snap.counters["chain.anchors"], 0u);
  EXPECT_GT(snap.counters["chain.candidates_kept"], 0u);
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

TEST(ChainTest, SeedPatternGuard) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  // All-ones of the right length matches a contiguous index...
  options.seed_pattern = "11111111";
  EXPECT_TRUE(engine.Search(f.queries[0].sequence, options).ok());
  // ...anything else is a mismatch.
  options.seed_pattern = "11011011011";
  EXPECT_TRUE(engine.Search(f.queries[0].sequence, options)
                  .status()
                  .IsInvalidArgument());
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
  {
    SearchOptions options;
    options.seed_pattern = "1x1";
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
