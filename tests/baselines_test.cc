// Tests of the three scan-based baseline engines, including agreement
// with each other and with the exhaustive oracle on planted homologies.

#include <gtest/gtest.h>

#include "search/blast_like.h"
#include "search/exhaustive.h"
#include "search/fasta_like.h"
#include "sim/workload.h"

namespace cafe {
namespace {

struct Fixture {
  SequenceCollection collection;
  std::vector<sim::PlantedQuery> queries;
};

Fixture MakeFixture() {
  sim::CollectionOptions copt;
  copt.num_sequences = 50;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 31;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 3;
  wopt.query_length = 200;
  wopt.homologs_per_query = 2;
  wopt.min_homolog_divergence = 0.03;
  wopt.max_homolog_divergence = 0.10;
  wopt.seed = 5;
  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  EXPECT_TRUE(wl.ok());
  Fixture f;
  f.collection = std::move(wl->collection);
  f.queries = std::move(wl->queries);
  return f;
}

TEST(ExhaustiveSearchTest, FindsPlantedHomologs) {
  Fixture f = MakeFixture();
  ExhaustiveSearch engine(&f.collection);
  SearchOptions options;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok());
    ASSERT_GE(r->hits.size(), q.true_positives.size());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
    EXPECT_EQ(r->trace.candidates_aligned, f.collection.NumSequences());
  }
}

TEST(ExhaustiveSearchTest, ScansEverySequence) {
  Fixture f = MakeFixture();
  ExhaustiveSearch engine(&f.collection);
  SearchOptions options;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->trace.candidates_ranked, f.collection.NumSequences());
  EXPECT_GT(r->trace.cells_computed, 0u);
}

TEST(ExhaustiveSearchTest, RejectsEmptyQueryAndBadScoring) {
  Fixture f = MakeFixture();
  ExhaustiveSearch engine(&f.collection);
  SearchOptions options;
  EXPECT_TRUE(engine.Search("", options).status().IsInvalidArgument());
  options.scoring.gap_open = 5;
  EXPECT_TRUE(engine.Search("ACGTACGT", options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ExhaustiveSearchTest, TracebackAlignments) {
  Fixture f = MakeFixture();
  ExhaustiveSearch engine(&f.collection);
  SearchOptions options;
  options.traceback = true;
  options.max_results = 2;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  EXPECT_FALSE(r->hits[0].alignment.ops.empty());
  EXPECT_EQ(r->hits[0].alignment.score, r->hits[0].score);
}

TEST(BlastLikeSearchTest, FindsPlantedHomologs) {
  Fixture f = MakeFixture();
  BlastLikeSearch engine(&f.collection);
  SearchOptions options;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->hits.empty());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
  }
}

TEST(BlastLikeSearchTest, AgreesWithExhaustiveTopHit) {
  Fixture f = MakeFixture();
  BlastLikeSearch blast(&f.collection);
  ExhaustiveSearch exh(&f.collection);
  SearchOptions options;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> rb = blast.Search(q.sequence, options);
    Result<SearchResult> re = exh.Search(q.sequence, options);
    ASSERT_TRUE(rb.ok() && re.ok());
    ASSERT_FALSE(rb->hits.empty());
    EXPECT_EQ(rb->hits[0].seq_id, re->hits[0].seq_id);
  }
}

TEST(BlastLikeSearchTest, RejectsQueryShorterThanSeed) {
  Fixture f = MakeFixture();
  BlastLikeSearch engine(&f.collection);
  SearchOptions options;
  EXPECT_TRUE(engine.Search("ACGT", options).status().IsInvalidArgument());
}

TEST(BlastLikeSearchTest, UnrelatedQueryFindsNothingStrong) {
  SequenceCollection col;
  ASSERT_TRUE(col.Add("g", "", std::string(500, 'G')).ok());
  BlastLikeSearch engine(&col);
  SearchOptions options;
  Result<SearchResult> r = engine.Search(std::string(100, 'A'), options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->hits.empty());
}

TEST(FastaLikeSearchTest, FindsPlantedHomologs) {
  Fixture f = MakeFixture();
  FastaLikeSearch engine(&f.collection);
  SearchOptions options;
  for (const sim::PlantedQuery& q : f.queries) {
    Result<SearchResult> r = engine.Search(q.sequence, options);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->hits.empty());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
  }
}

TEST(FastaLikeSearchTest, AgreesWithExhaustiveTopHit) {
  Fixture f = MakeFixture();
  FastaLikeSearch fasta(&f.collection);
  ExhaustiveSearch exh(&f.collection);
  SearchOptions options;
  const sim::PlantedQuery& q = f.queries[0];
  Result<SearchResult> rf = fasta.Search(q.sequence, options);
  Result<SearchResult> re = exh.Search(q.sequence, options);
  ASSERT_TRUE(rf.ok() && re.ok());
  ASSERT_FALSE(rf->hits.empty());
  EXPECT_EQ(rf->hits[0].seq_id, re->hits[0].seq_id);
}

TEST(FastaLikeSearchTest, RejectsQueryShorterThanKtup) {
  Fixture f = MakeFixture();
  FastaLikeSearch engine(&f.collection);
  SearchOptions options;
  EXPECT_TRUE(engine.Search("ACGT", options).status().IsInvalidArgument());
}

TEST(FastaLikeSearchTest, MinDiagonalHitsFilters) {
  // Sequence 0 shares one 6-tuple with the query, sequence 1 two on one
  // diagonal: only sequence 1 reaches kMinDiagonalHits and is rescored.
  static_assert(FastaLikeSearch::kKtup == 6 &&
                FastaLikeSearch::kMinDiagonalHits == 2);
  SequenceCollection col;
  ASSERT_TRUE(col.Add("one", "", "GGGGGGGGGGACGTACGGGGGGGGGG").ok());
  ASSERT_TRUE(col.Add("two", "", "GGGGGGGGGGACGTACTGGGGGGGGG").ok());
  FastaLikeSearch engine(&col);
  SearchOptions options;
  Result<SearchResult> r = engine.Search("ACGTACTTTTTTTTTT", options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->hits.size(), 1u);
  EXPECT_EQ(r->hits[0].seq_id, 1u);
  EXPECT_EQ(r->trace.candidates_aligned, 1u);
}

TEST(EngineNamesTest, Distinct) {
  Fixture f = MakeFixture();
  ExhaustiveSearch a(&f.collection);
  BlastLikeSearch b(&f.collection);
  FastaLikeSearch c(&f.collection);
  EXPECT_NE(a.name(), b.name());
  EXPECT_NE(b.name(), c.name());
  EXPECT_NE(a.name(), c.name());
}

}  // namespace
}  // namespace cafe
