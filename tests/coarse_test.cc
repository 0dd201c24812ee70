#include "search/coarse.h"

#include <gtest/gtest.h>

#include "collection/collection.h"
#include "index/inverted_index.h"

namespace cafe {
namespace {

// Collection where sequence 1 contains the query verbatim, sequence 2
// shares half of it, and the others are unrelated.
SequenceCollection RankableCollection(const std::string& query) {
  SequenceCollection col;
  EXPECT_TRUE(col.Add("unrelated0", "", "GGGGGGGGGGGGGGGGGGGGGGGGGGGG").ok());
  EXPECT_TRUE(
      col.Add("exact", "", "TTTTTT" + query + "TTTTTT").ok());
  EXPECT_TRUE(col.Add("half", "",
                      "CCCCCC" + query.substr(0, query.size() / 2) +
                          "CCCCCC")
                  .ok());
  EXPECT_TRUE(col.Add("unrelated1", "", "GGGGGGGGGGGGGGGGGGGGGGGGGGGG").ok());
  return col;
}

InvertedIndex BuildIndex(const SequenceCollection& col,
                         IndexGranularity granularity) {
  IndexOptions options;
  options.interval_length = 8;
  options.granularity = granularity;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(*index);
}

const std::string kQuery = "ACGTTGCAGGCATCAGGATTACAGGCATTGCA";

TEST(CoarseRankerTest, HitCountRanksContainingSequenceFirst) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(kQuery, CoarseRankMode::kHitCount, 10, 16,
                           nullptr, &trace);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].doc, 1u);  // exact container
  EXPECT_EQ(cands[1].doc, 2u);  // half container
  EXPECT_GT(cands[0].score, cands[1].score);
  EXPECT_FALSE(cands[0].has_diagonal);
  EXPECT_GT(trace.postings_decoded, 0u);
  EXPECT_GT(trace.candidates_ranked, 0u);
}

TEST(CoarseRankerTest, DiagonalModeFindsCorrectDiagonal) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(kQuery, CoarseRankMode::kDiagonal, 10, 16,
                           nullptr, &trace);
  ASSERT_GE(cands.size(), 1u);
  EXPECT_EQ(cands[0].doc, 1u);
  ASSERT_TRUE(cands[0].has_diagonal);
  // True diagonal is +6 (query embedded after "TTTTTT"); the frame
  // estimate must be within one frame width.
  EXPECT_NEAR(static_cast<double>(cands[0].diagonal), 6.0, 16.0);
}

TEST(CoarseRankerTest, DiagonalFallsBackOnDocumentIndex) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kDocument);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(kQuery, CoarseRankMode::kDiagonal, 10, 16,
                           nullptr, &trace);
  ASSERT_GE(cands.size(), 1u);
  EXPECT_EQ(cands[0].doc, 1u);
  EXPECT_FALSE(cands[0].has_diagonal);  // hit-count fallback
}

TEST(CoarseRankerTest, LimitRespected) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(kQuery, CoarseRankMode::kHitCount, 1, 16,
                           nullptr, &trace);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].doc, 1u);
}

TEST(CoarseRankerTest, NoSharedIntervalsYieldsEmpty) {
  SequenceCollection col;
  ASSERT_TRUE(col.Add("a", "", "GGGGGGGGGGGGGGGGGGGG").ok());
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands = ranker.Rank(std::string(20, 'A'), CoarseRankMode::kDiagonal,
                           10, 16, nullptr, &trace);
  EXPECT_TRUE(cands.empty());
}

TEST(CoarseRankerTest, DiagonalModeSeparatesScatteredFromCollinear) {
  // Two sequences share the same number of query intervals, but in one
  // they are collinear (true homologue) and in the other scattered.
  // Diagonal ranking must prefer the collinear one; plain hit counting
  // cannot tell them apart.
  std::string q = "ACGTTGCAGGCATCAGGATTACAGGCA";  // 27 bases
  std::string collinear = "TTTTTTTT" + q + "TTTTTTTT";
  // Scattered: same 8-mers but permuted in blocks of 9 with junk between.
  std::string scattered = "TTTTTTTT" + q.substr(18, 9) + "GGGGGGGGGG" +
                          q.substr(0, 9) + "GGGGGGGGGG" + q.substr(9, 9) +
                          "TTTTTTTT";
  SequenceCollection col;
  ASSERT_TRUE(col.Add("collinear", "", collinear).ok());
  ASSERT_TRUE(col.Add("scattered", "", scattered).ok());

  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands =
      ranker.Rank(q, CoarseRankMode::kDiagonal, 10, 16, nullptr, &trace);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].doc, 0u);
  EXPECT_GT(cands[0].score, cands[1].score);
}

TEST(CoarseRankerTest, DiagonalTieKeepsTheSmallestFrame) {
  // Each document holds the query's two halves on two diagonals whose
  // frames lie far apart, so its two best (frame, frame + 1) windows tie
  // at 17 hits each. The smaller frame must win in either layout. The
  // 'T' filler shares no 8-mer with the query.
  const std::string a = "GCGCGGGGACAGAAACCACGAGAA";
  const std::string b = "GACCACAAAGGCAAAAAAAACCAG";
  const std::string edge(40, 'T');
  const std::string gap(136, 'T');
  SequenceCollection col;
  ASSERT_TRUE(col.Add("a_first", "", edge + a + gap + b + edge).ok());
  ASSERT_TRUE(col.Add("b_first", "", edge + b + gap + a + edge).ok());
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  auto cands = ranker.Rank(a + b, CoarseRankMode::kDiagonal, 10, 16,
                           nullptr);
  ASSERT_EQ(cands.size(), 2u);
  // Frame = (diagonal + 48) / 16, and a candidate reports its window's
  // middle edge, (frame + 1) * 16 - 48. a_first has a on diagonal 40
  // (frame 5) and b on 176 (frame 14); b_first has b on 16 (frame 4)
  // and a on 200 (frame 15).
  EXPECT_EQ(cands[0].doc, 0u);
  EXPECT_EQ(cands[0].score, 17.0);
  EXPECT_EQ(cands[0].diagonal, 48);
  EXPECT_EQ(cands[1].doc, 1u);
  EXPECT_EQ(cands[1].score, 17.0);
  EXPECT_EQ(cands[1].diagonal, 32);
  // Each carries the winning window's anchors and counts both halves.
  const uint32_t window_diagonal[] = {40, 16};
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cands[i].anchor_count, 34u);
    ASSERT_EQ(cands[i].anchors.size(), 17u);
    for (const Anchor& anchor : cands[i].anchors) {
      EXPECT_EQ(anchor.spos - anchor.qpos, window_diagonal[i]);
    }
  }
}

TEST(CoarseRankerTest, OnlyDiagonalRankingCarriesAnchors) {
  SequenceCollection col = RankableCollection(kQuery);
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  auto diagonal =
      ranker.Rank(kQuery, CoarseRankMode::kDiagonal, 10, 16, nullptr);
  ASSERT_FALSE(diagonal.empty());
  for (const CoarseCandidate& cand : diagonal) {
    EXPECT_FALSE(cand.anchors.empty()) << cand.doc;
    EXPECT_LE(cand.anchors.size(), cand.anchor_count) << cand.doc;
    EXPECT_EQ(static_cast<double>(cand.anchors.size()), cand.score)
        << cand.doc;
  }
  auto hit_count =
      ranker.Rank(kQuery, CoarseRankMode::kHitCount, 10, 16, nullptr);
  ASSERT_FALSE(hit_count.empty());
  for (const CoarseCandidate& cand : hit_count) {
    EXPECT_TRUE(cand.anchors.empty()) << cand.doc;
    EXPECT_EQ(cand.anchor_count, 0u) << cand.doc;
  }
}

TEST(CoarseRankerTest, QueryRepeatsDoNotOvercount) {
  // Query with a repeated interval: hit-count scoring uses
  // min(query tf, doc tf).
  std::string unit = "ACGTTGCA";
  std::string q = unit + unit + unit;  // interval ACGTTGCA occurs 3 times
  SequenceCollection col;
  ASSERT_TRUE(col.Add("single", "", "TTTT" + unit + "TTTT").ok());
  InvertedIndex index = BuildIndex(col, IndexGranularity::kPositional);
  CoarseRanker ranker(&index);
  obs::SearchTrace trace;
  auto cands =
      ranker.Rank(q, CoarseRankMode::kHitCount, 10, 16, nullptr, &trace);
  ASSERT_EQ(cands.size(), 1u);
  // The doc has each of the repeated-unit intervals once; min() keeps the
  // score bounded by the doc's own count, not the query's 3x repetition.
  EXPECT_LE(cands[0].score, 9.0);
}

}  // namespace
}  // namespace cafe
