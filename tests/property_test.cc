// Cross-cutting randomized property tests that tie modules together:
// interval extraction vs a naive reference over wildcard-bearing
// sequences, alignment invariances (symmetry, reverse-complement,
// wildcard monotonicity), and coarse-ranking frame-width robustness.

#include <gtest/gtest.h>

#include "align/smith_waterman.h"
#include "alphabet/nucleotide.h"
#include "index/interval.h"
#include "search/coarse.h"
#include "search/partitioned.h"
#include "sim/generator.h"
#include "util/random.h"

namespace cafe {
namespace {

std::string RandomIupac(size_t len, double wildcard_rate, Rng* rng) {
  const std::string wildcards = "NRYSWKMBDHV";
  std::string s(len, 'A');
  for (char& c : s) {
    if (rng->Bernoulli(wildcard_rate)) {
      c = wildcards[rng->Uniform(wildcards.size())];
    } else {
      c = CodeToBase(static_cast<int>(rng->Uniform(4)));
    }
  }
  return s;
}

TEST(IntervalPropertyTest, ExtractionMatchesNaiveUnderWildcards) {
  Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    size_t len = rng.Uniform(200);
    double rate = rng.NextDouble() * 0.2;
    std::string seq = RandomIupac(len, rate, &rng);
    int n = 4 + static_cast<int>(rng.Uniform(6));
    uint32_t stride = 1 + static_cast<uint32_t>(rng.Uniform(4));

    // Naive reference: every aligned window re-encoded from scratch.
    std::vector<IntervalHit> expected;
    for (size_t pos = 0; pos + n <= seq.size(); pos += stride) {
      int64_t term = EncodeInterval(
          std::string_view(seq).substr(pos), n);
      if (term >= 0) {
        expected.push_back(
            {static_cast<uint32_t>(pos), static_cast<uint32_t>(term)});
      }
    }

    auto got = ExtractIntervals(seq, n, stride);
    ASSERT_EQ(got.size(), expected.size())
        << "trial " << trial << " n=" << n << " stride=" << stride;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].position, expected[i].position);
      EXPECT_EQ(got[i].term, expected[i].term);
    }
  }
}

TEST(AlignPropertyTest, ScoreIsSymmetric) {
  Rng rng(43);
  Aligner aligner;
  for (int trial = 0; trial < 40; ++trial) {
    std::string a = RandomIupac(10 + rng.Uniform(80), 0.02, &rng);
    std::string b = RandomIupac(10 + rng.Uniform(80), 0.02, &rng);
    EXPECT_EQ(aligner.ScoreOnly(a, b), aligner.ScoreOnly(b, a));
  }
}

TEST(AlignPropertyTest, ReverseComplementInvariance) {
  // Local alignment score is invariant under reverse-complementing BOTH
  // sequences (the alignment maps onto the other strand).
  Rng rng(44);
  Aligner aligner;
  for (int trial = 0; trial < 40; ++trial) {
    std::string a = RandomIupac(10 + rng.Uniform(80), 0.0, &rng);
    std::string b = RandomIupac(10 + rng.Uniform(80), 0.0, &rng);
    EXPECT_EQ(aligner.ScoreOnly(a, b),
              aligner.ScoreOnly(ReverseComplement(a), ReverseComplement(b)))
        << a << " / " << b;
  }
}

TEST(AlignPropertyTest, ScoreBoundedByPerfectMatch) {
  Rng rng(45);
  Aligner aligner;
  int match = aligner.scheme().match;
  for (int trial = 0; trial < 40; ++trial) {
    std::string a = RandomIupac(5 + rng.Uniform(60), 0.05, &rng);
    std::string b = RandomIupac(5 + rng.Uniform(60), 0.05, &rng);
    int bound =
        match * static_cast<int>(std::min(a.size(), b.size()));
    int score = aligner.ScoreOnly(a, b);
    EXPECT_GE(score, 0);
    EXPECT_LE(score, bound);
  }
}

TEST(AlignPropertyTest, SubstringAlwaysScoresFullMatch) {
  Rng rng(46);
  Aligner aligner;
  for (int trial = 0; trial < 30; ++trial) {
    std::string host = RandomIupac(200, 0.0, &rng);
    size_t len = 10 + rng.Uniform(50);
    size_t start = rng.Uniform(host.size() - len);
    std::string probe = host.substr(start, len);
    EXPECT_GE(aligner.ScoreOnly(probe, host),
              aligner.scheme().match * static_cast<int>(len));
  }
}

TEST(AlignPropertyTest, BandedNeverExceedsFull) {
  Rng rng(47);
  Aligner aligner;
  for (int trial = 0; trial < 30; ++trial) {
    std::string a = RandomIupac(20 + rng.Uniform(60), 0.01, &rng);
    std::string b = RandomIupac(20 + rng.Uniform(60), 0.01, &rng);
    int full = aligner.ScoreOnly(a, b);
    int64_t diag = static_cast<int64_t>(rng.UniformInt(-20, 20));
    int band = static_cast<int>(rng.Uniform(30));
    EXPECT_LE(aligner.BandedScore(a, b, diag, band), full);
  }
}

TEST(CoarsePropertyTest, FrameWidthDoesNotChangeTopContainingDoc) {
  // Whatever the frame width, a sequence containing the query verbatim
  // must outrank unrelated sequences.
  sim::CollectionOptions copt;
  copt.num_sequences = 20;
  copt.seed = 48;
  sim::CollectionGenerator gen(copt);
  SequenceCollection col = *gen.Generate();
  std::string query = gen.RandomSequence(150);
  uint32_t target =
      *col.Add("target", "", gen.RandomSequence(100) + query +
                                 gen.RandomSequence(100));
  IndexOptions iopt;
  iopt.interval_length = 8;
  InvertedIndex index = IndexBuilder::Build(col, iopt).value();
  CoarseRanker ranker(&index);
  for (uint32_t frame_width : {4u, 8u, 16u, 64u, 256u}) {
    obs::SearchTrace trace;
    auto cands = ranker.Rank(query, CoarseRankMode::kDiagonal, 5,
                             frame_width, nullptr, &trace);
    ASSERT_FALSE(cands.empty()) << "frame width " << frame_width;
    EXPECT_EQ(cands[0].doc, target) << "frame width " << frame_width;
  }
}

TEST(StorePropertyTest, CollectionRoundTripsArbitraryIupac) {
  Rng rng(49);
  for (int trial = 0; trial < 20; ++trial) {
    SequenceCollection col;
    std::vector<std::string> originals;
    size_t count = 1 + rng.Uniform(10);
    for (size_t i = 0; i < count; ++i) {
      originals.push_back(RandomIupac(rng.Uniform(400), 0.1, &rng));
      ASSERT_TRUE(
          col.Add("s" + std::to_string(i), "", originals.back()).ok());
    }
    std::string data;
    col.Serialize(&data);
    Result<SequenceCollection> back = SequenceCollection::Deserialize(data);
    ASSERT_TRUE(back.ok());
    std::string seq;
    for (size_t i = 0; i < count; ++i) {
      ASSERT_TRUE(back->GetSequence(static_cast<uint32_t>(i), &seq).ok());
      EXPECT_EQ(seq, originals[i]);
    }
  }
}

}  // namespace
}  // namespace cafe
