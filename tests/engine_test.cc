#include "search/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>

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

TEST(TopHitsTest, FloorTracksWorstRetained) {
  TopHits top(2);
  EXPECT_EQ(top.Floor(), INT_MIN);
  top.Add(Hit(1, 5));
  EXPECT_EQ(top.Floor(), INT_MIN);  // not full yet
  top.Add(Hit(2, 9));
  EXPECT_EQ(top.Floor(), 5);
  top.Add(Hit(3, 7));
  EXPECT_EQ(top.Floor(), 7);
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

}  // namespace
}  // namespace cafe
