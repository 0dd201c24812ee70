// Both-strand search: a nucleotide query must find homologues stored as
// the reverse complement (the other strand of the duplex).

#include <gtest/gtest.h>

#include "alphabet/nucleotide.h"
#include "search/exhaustive.h"
#include "search/partitioned.h"
#include "sim/generator.h"

namespace cafe {
namespace {

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::string query;
  uint32_t forward_id = 0;
  uint32_t reverse_id = 0;
};

Fixture MakeFixture() {
  sim::CollectionOptions copt;
  copt.num_sequences = 30;
  copt.length_mu = 6.0;
  copt.seed = 404;
  sim::CollectionGenerator gen(copt);
  Fixture f;
  f.collection = *gen.Generate();

  f.query = gen.RandomSequence(120);
  // Forward-strand homologue: the query embedded verbatim.
  std::string fwd_host =
      gen.RandomSequence(200) + f.query + gen.RandomSequence(200);
  // Reverse-strand homologue: the reverse complement embedded.
  std::string rev_host = gen.RandomSequence(200) +
                         ReverseComplement(f.query) +
                         gen.RandomSequence(200);
  f.forward_id = *f.collection.Add("fwd", "", fwd_host);
  f.reverse_id = *f.collection.Add("rev", "", rev_host);

  IndexOptions iopt;
  iopt.interval_length = 8;
  f.index = IndexBuilder::Build(f.collection, iopt).value();
  return f;
}

bool Contains(const std::vector<SearchHit>& hits, uint32_t id,
              Strand strand) {
  for (const SearchHit& h : hits) {
    if (h.seq_id == id && h.strand == strand) return true;
  }
  return false;
}

TEST(StrandTest, ForwardOnlyMissesReverseHomolog) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.search_both_strands = false;
  Result<SearchResult> r = SearchWithStrands(&engine, f.query, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  EXPECT_EQ(r->hits[0].seq_id, f.forward_id);
  EXPECT_FALSE(Contains(r->hits, f.reverse_id, Strand::kReverse));
  for (const SearchHit& h : r->hits) {
    EXPECT_EQ(h.strand, Strand::kForward);
  }
}

TEST(StrandTest, BothStrandsFindsBothHomologs) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.search_both_strands = true;
  Result<SearchResult> r = SearchWithStrands(&engine, f.query, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(Contains(r->hits, f.forward_id, Strand::kForward));
  EXPECT_TRUE(Contains(r->hits, f.reverse_id, Strand::kReverse));
  // Both homologues embed the same 120-base region verbatim, so their
  // scores must be equal at the top of the ranking.
  ASSERT_GE(r->hits.size(), 2u);
  EXPECT_EQ(r->hits[0].score, r->hits[1].score);
}

TEST(StrandTest, WorksWithExhaustiveEngine) {
  Fixture f = MakeFixture();
  ExhaustiveSearch engine(&f.collection);
  SearchOptions options;
  options.search_both_strands = true;
  Result<SearchResult> r = SearchWithStrands(&engine, f.query, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(Contains(r->hits, f.forward_id, Strand::kForward));
  EXPECT_TRUE(Contains(r->hits, f.reverse_id, Strand::kReverse));
}

TEST(StrandTest, StatsAccumulateAcrossStrands) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.search_both_strands = false;
  Result<SearchResult> single = SearchWithStrands(&engine, f.query, options);
  options.search_both_strands = true;
  Result<SearchResult> both = SearchWithStrands(&engine, f.query, options);
  ASSERT_TRUE(single.ok() && both.ok());
  EXPECT_EQ(single->trace.queries, 1u);
  EXPECT_EQ(both->trace.queries, 2u);
  EXPECT_GT(both->trace.postings_decoded, single->trace.postings_decoded);
  EXPECT_GT(both->trace.candidates_aligned,
            single->trace.candidates_aligned);
  // The merged trace is the forward pass plus the reverse pass.
  Result<SearchResult> reverse =
      engine.Search(ReverseComplement(f.query), SearchOptions{});
  ASSERT_TRUE(reverse.ok());
  obs::SearchTrace sum = single->trace;
  sum.Merge(reverse->trace);
  EXPECT_EQ(both->trace.CountersJson(), sum.CountersJson());
}

TEST(StrandTest, MaxResultsRespectedAfterMerge) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.search_both_strands = true;
  options.max_results = 3;
  Result<SearchResult> r = SearchWithStrands(&engine, f.query, options);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->hits.size(), 3u);
}

TEST(StrandTest, ErrorPropagates) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.search_both_strands = true;
  EXPECT_TRUE(SearchWithStrands(&engine, "ACG", options)
                  .status()
                  .IsInvalidArgument());
}

TEST(StrandTest, StatisticsAnnotationAppliesToMergedHits) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.search_both_strands = true;
  options.statistics = GumbelParams{0.19, 0.35};
  Result<SearchResult> r = SearchWithStrands(&engine, f.query, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  for (const SearchHit& h : r->hits) {
    EXPECT_GT(h.bit_score, 0.0);
    EXPECT_GE(h.evalue, 0.0);
  }
  // Higher raw score => higher bits, lower E.
  for (size_t i = 1; i < r->hits.size(); ++i) {
    if (r->hits[i - 1].score > r->hits[i].score) {
      EXPECT_GT(r->hits[i - 1].bit_score, r->hits[i].bit_score);
      EXPECT_LT(r->hits[i - 1].evalue, r->hits[i].evalue);
    }
  }
}

}  // namespace
}  // namespace cafe
