#include "search/partitioned.h"

#include <gtest/gtest.h>

#include "search/exhaustive.h"
#include "sim/workload.h"

namespace cafe {
namespace {

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::vector<sim::PlantedQuery> queries;
};

Fixture MakeFixture(IndexGranularity granularity,
                    double stop_fraction = 1.0) {
  sim::CollectionOptions copt;
  copt.num_sequences = 60;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 99;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 4;
  wopt.query_length = 200;
  wopt.homologs_per_query = 3;
  wopt.min_homolog_divergence = 0.03;
  wopt.max_homolog_divergence = 0.12;
  wopt.seed = 7;

  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();

  IndexOptions iopt;
  iopt.interval_length = 8;
  iopt.granularity = granularity;
  iopt.stop_doc_fraction = stop_fraction;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  EXPECT_TRUE(index.ok()) << index.status().ToString();

  Fixture f;
  f.collection = std::move(wl->collection);
  f.index = std::move(*index);
  f.queries = std::move(wl->queries);
  return f;
}

TEST(PartitionedSearchTest, FindsPlantedHomologs) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 20;

  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->hits.empty());
    // The strongest homologue (lowest divergence) must be ranked first.
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
    // All planted homologues must appear in the top 10.
    for (uint32_t tp : q.true_positives) {
      bool found = false;
      for (const SearchHit& h : r->hits) found |= (h.seq_id == tp);
      EXPECT_TRUE(found) << "missing homologue " << tp;
    }
  }
}

TEST(PartitionedSearchTest, HitCountModeAlsoFindsHomologs) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.coarse_mode = CoarseRankMode::kHitCount;
  options.fine_candidates = 20;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->hits.empty());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
  }
}

TEST(PartitionedSearchTest, DocumentGranularityIndexWorks) {
  Fixture f = MakeFixture(IndexGranularity::kDocument);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.fine_candidates = 20;
  const sim::PlantedQuery& q = f.queries[0];
  Result<SearchResult> r = engine.Search(q.sequence, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
}

TEST(PartitionedSearchTest, AgreesWithExhaustiveOnTopHit) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch part(&f.collection, &f.index);
  ExhaustiveSearch exh(&f.collection);
  SearchOptions options;
  options.fine_candidates = 30;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> rp = part.Search(q.sequence, options);
    Result<SearchResult> re = exh.Search(q.sequence, options);
    ASSERT_TRUE(rp.ok() && re.ok());
    ASSERT_FALSE(rp->hits.empty());
    ASSERT_FALSE(re->hits.empty());
    EXPECT_EQ(rp->hits[0].seq_id, re->hits[0].seq_id);
    // Banded fine score can undershoot full SW slightly but not exceed it.
    EXPECT_LE(rp->hits[0].score, re->hits[0].score);
    EXPECT_GT(rp->hits[0].score, re->hits[0].score / 2);
  }
}

TEST(PartitionedSearchTest, StatsPopulated) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.fine_candidates = 15;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->trace.postings_decoded, 0u);
  EXPECT_GT(r->trace.candidates_ranked, 0u);
  EXPECT_LE(r->trace.candidates_aligned, 15u);
  EXPECT_GT(r->trace.cells_computed, 0u);
  EXPECT_GT(r->trace.total_micros, 0.0);
}

TEST(PartitionedSearchTest, FineCandidateBudgetRespected) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.fine_candidates = 3;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->trace.candidates_aligned, 3u);
  EXPECT_LE(r->hits.size(), options.max_results);
}

TEST(PartitionedSearchTest, TracebackProducesAlignments) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.traceback = true;
  options.max_results = 3;
  options.fine_candidates = 10;
  const sim::PlantedQuery& q = f.queries[0];
  Result<SearchResult> r = engine.Search(q.sequence, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  const SearchHit& top = r->hits[0];
  EXPECT_FALSE(top.alignment.ops.empty());
  EXPECT_GT(top.alignment.score, 0);
  EXPECT_GT(top.alignment.Identity(), 0.7);
}

TEST(PartitionedSearchTest, RejectsShortQuery) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  EXPECT_TRUE(
      engine.Search("ACGT", options).status().IsInvalidArgument());
}

TEST(PartitionedSearchTest, RejectsBadScoring) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.scoring.match = -1;
  EXPECT_TRUE(engine.Search(f.queries[0].sequence, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(PartitionedSearchTest, StoppedIndexStillFindsHomologs) {
  Fixture f = MakeFixture(IndexGranularity::kPositional, 0.5);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.fine_candidates = 20;
  const sim::PlantedQuery& q = f.queries[0];
  Result<SearchResult> r = engine.Search(q.sequence, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
}

TEST(PartitionedSearchTest, MinScoreFilters) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.min_score = 1 << 30;  // absurd threshold: nothing passes
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->hits.empty());
}

TEST(PartitionedSearchTest, ExpiredDeadlineReturnsTruncatedFast) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  // A deadline that has already fired: the search must still succeed,
  // but with the truncated flag and no work beyond the entry check.
  Deadline expired = Deadline::AfterSeconds(-1.0);
  options.deadline = &expired;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->truncated);
  EXPECT_TRUE(r->hits.empty());
  EXPECT_EQ(r->trace.candidates_aligned, 0u);
}

TEST(PartitionedSearchTest, InfiniteDeadlineDoesNotTruncate) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);

  SearchOptions plain;
  Result<SearchResult> reference =
      engine.Search(f.queries[0].sequence, plain);
  ASSERT_TRUE(reference.ok());

  SearchOptions with_deadline;
  Deadline infinite = Deadline::Infinite();
  with_deadline.deadline = &infinite;
  Result<SearchResult> r =
      engine.Search(f.queries[0].sequence, with_deadline);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->truncated);
  // A deadline that never fires must not change the answer.
  ASSERT_EQ(r->hits.size(), reference->hits.size());
  for (size_t h = 0; h < r->hits.size(); ++h) {
    EXPECT_EQ(r->hits[h].seq_id, reference->hits[h].seq_id);
    EXPECT_EQ(r->hits[h].score, reference->hits[h].score);
  }
}

TEST(PartitionedSearchTest, TruncatedResultsStaySorted) {
  Fixture f = MakeFixture(IndexGranularity::kPositional);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.search_both_strands = true;
  Deadline expired = Deadline::AfterSeconds(-1.0);
  options.deadline = &expired;
  // Both strand passes truncate; the merged result keeps the flag.
  Result<SearchResult> r =
      SearchWithStrands(&engine, f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->truncated);
}

}  // namespace
}  // namespace cafe
