#include "search/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "align/smith_waterman.h"
#include "search/blast_like.h"
#include "search/exhaustive.h"
#include "search/fasta_like.h"
#include "search/partitioned.h"
#include "sim/generator.h"

namespace cafe {
namespace {

SearchHit Hit(uint32_t id, int score) {
  SearchHit h;
  h.seq_id = id;
  h.score = score;
  return h;
}

TEST(TopHitsTest, KeepsBestK) {
  TopHits top(3);
  for (int s : {5, 1, 9, 7, 3, 8}) {
    top.Add(Hit(static_cast<uint32_t>(s), s));
  }
  std::vector<SearchHit> hits = top.Take();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].score, 9);
  EXPECT_EQ(hits[1].score, 8);
  EXPECT_EQ(hits[2].score, 7);
}

TEST(TopHitsTest, FewerThanK) {
  TopHits top(10);
  top.Add(Hit(1, 5));
  top.Add(Hit(2, 7));
  std::vector<SearchHit> hits = top.Take();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].score, 7);
}

TEST(TopHitsTest, ZeroLimit) {
  TopHits top(0);
  top.Add(Hit(1, 5));
  EXPECT_TRUE(top.Take().empty());
}

TEST(TopHitsTest, TieBreakPrefersLowerSeqId) {
  TopHits top(2);
  top.Add(Hit(9, 5));
  top.Add(Hit(1, 5));
  top.Add(Hit(4, 5));
  std::vector<SearchHit> hits = top.Take();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].seq_id, 1u);
  EXPECT_EQ(hits[1].seq_id, 4u);
}

TEST(TopHitsTest, ManyInsertsMatchFullSort) {
  TopHits top(16);
  std::vector<SearchHit> all;
  uint64_t state = 12345;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    int score = static_cast<int>(state % 100);
    SearchHit h = Hit(static_cast<uint32_t>(i), score);
    all.push_back(h);
    top.Add(h);
  }
  std::sort(all.begin(), all.end(), [](const SearchHit& a,
                                       const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.seq_id < b.seq_id;
  });
  std::vector<SearchHit> hits = top.Take();
  ASSERT_EQ(hits.size(), 16u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].seq_id, all[i].seq_id) << i;
    EXPECT_EQ(hits[i].score, all[i].score) << i;
  }
}

// A query of 8,193 random bases and a collection of itself and a
// 200-base piece of it. Every engine here traces the self hit back over
// the full matrix, 8,193 x 8,193 cells: just over the limit.
struct OverLimitFixture {
  std::string query;
  SequenceCollection collection;
};

OverLimitFixture MakeOverLimitFixture() {
  static_assert(uint64_t{8193} * 8193 > Aligner::kMaxTracebackCells);
  sim::CollectionOptions copt;
  copt.wildcard_rate = 0;
  sim::CollectionGenerator gen(copt);
  OverLimitFixture f;
  f.query = gen.RandomSequence(8193);
  EXPECT_TRUE(f.collection.Add("self", "", f.query).ok());
  EXPECT_TRUE(f.collection.Add("piece", "", f.query.substr(1000, 200)).ok());
  return f;
}

// With traceback, the over-limit hit keeps its score and reports no
// alignment, and the search succeeds. The piece keeps its alignment,
// and only its traceback cells (8,193 x 200) are counted.
void ExpectOverLimitHitKeepsScore(SearchEngine* engine,
                                  const std::string& query,
                                  SearchOptions options) {
  Result<SearchResult> plain = engine->Search(query, options);
  options.traceback = true;
  Result<SearchResult> traced = engine->Search(query, options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->hits.size(), 2u);
  EXPECT_EQ(traced->hits[0].seq_id, 0u);
  EXPECT_EQ(traced->hits[0].score, plain->hits[0].score);
  EXPECT_TRUE(traced->hits[0].alignment.ops.empty());
  EXPECT_EQ(traced->hits[1].alignment.score, traced->hits[1].score);
  EXPECT_EQ(traced->trace.cells_computed,
            plain->trace.cells_computed + uint64_t{8193} * 200);
}

TEST(ReportHitsTest, BaselineTracebackOverCellLimitKeepsScore) {
  OverLimitFixture f = MakeOverLimitFixture();
  ExhaustiveSearch exhaustive(&f.collection);
  BlastLikeSearch blast(&f.collection);
  FastaLikeSearch fasta(&f.collection);
  for (SearchEngine* engine :
       {static_cast<SearchEngine*>(&exhaustive),
        static_cast<SearchEngine*>(&blast),
        static_cast<SearchEngine*>(&fasta)}) {
    SCOPED_TRACE(engine->name());
    ExpectOverLimitHitKeepsScore(engine, f.query, SearchOptions());
  }
}

TEST(ReportHitsTest, HitCountTracebackOverCellLimitKeepsScore) {
  // Hit-count ranking carries no diagonal, so the traceback runs over
  // the full matrix.
  OverLimitFixture f = MakeOverLimitFixture();
  IndexOptions iopt;
  iopt.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(f.collection, iopt);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  PartitionedSearch engine(&f.collection, &*index);
  SearchOptions options;
  options.coarse_mode = CoarseRankMode::kHitCount;
  ExpectOverLimitHitKeepsScore(&engine, f.query, options);
}

}  // namespace
}  // namespace cafe
