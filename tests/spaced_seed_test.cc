#include "alphabet/spaced_seed.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "index/interval.h"
#include "index/seed_extract.h"

namespace cafe {
namespace {

using Extraction = std::vector<std::pair<uint32_t, uint32_t>>;

Extraction SpacedTerms(std::string_view seq, const SpacedSeed& seed,
                       uint32_t stride = 1) {
  Extraction out;
  ForEachSpacedSeed(seq, seed, stride, [&](uint32_t pos, uint32_t term) {
    out.emplace_back(pos, term);
  });
  return out;
}

Extraction IntervalTerms(std::string_view seq, int n, uint32_t stride = 1) {
  Extraction out;
  ForEachInterval(seq, n, stride, [&](uint32_t pos, uint32_t term) {
    out.emplace_back(pos, term);
  });
  return out;
}

TEST(SpacedSeedTest, ParsesValidPattern) {
  Result<SpacedSeed> seed = SpacedSeed::Parse("1101011");
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  EXPECT_EQ(seed->span(), 7);
  EXPECT_EQ(seed->weight(), 5);
  EXPECT_EQ(seed->care_offsets(),
            (std::vector<uint8_t>{0, 1, 3, 5, 6}));
}

TEST(SpacedSeedTest, AllOnesIsContiguous) {
  Result<SpacedSeed> seed = SpacedSeed::Parse("11111111");
  ASSERT_TRUE(seed.ok());
  EXPECT_EQ(seed->span(), seed->weight());
}

TEST(SpacedSeedTest, ParseRejectsMalformedPatterns) {
  // Empty, bad characters, zero-terminated ends, weight out of range,
  // span too wide.
  EXPECT_TRUE(SpacedSeed::Parse("").status().IsInvalidArgument());
  EXPECT_TRUE(SpacedSeed::Parse("11x11").status().IsInvalidArgument());
  EXPECT_TRUE(SpacedSeed::Parse("01111").status().IsInvalidArgument());
  EXPECT_TRUE(SpacedSeed::Parse("11110").status().IsInvalidArgument());
  EXPECT_TRUE(SpacedSeed::Parse("111").status().IsInvalidArgument());
  std::string heavy(kMaxSeedWeight + 1, '1');
  EXPECT_TRUE(SpacedSeed::Parse(heavy).status().IsInvalidArgument());
  std::string wide = "1" + std::string(kMaxSeedSpan - 1, '0') + "1";
  ASSERT_GT(static_cast<int>(wide.size()), kMaxSeedSpan);
  EXPECT_TRUE(SpacedSeed::Parse(wide).status().IsInvalidArgument());
}

TEST(SpacedSeedTest, EncodePacksCarePositionsMsbFirst) {
  Result<SpacedSeed> seed = SpacedSeed::Parse("11011");
  ASSERT_TRUE(seed.ok());
  // Care positions 0,1,3,4 of "ACGTA" -> A,C,T,A = 0,1,3,0.
  EXPECT_EQ(seed->Encode("ACGTA"),
            (0 << 6) | (1 << 4) | (3 << 2) | 0);
  // The don't-care slot may hold anything, including a wildcard.
  EXPECT_EQ(seed->Encode("ACNTA"), seed->Encode("ACGTA"));
}

TEST(SpacedSeedTest, EncodeRejectsWildcardsAndShortWindows) {
  Result<SpacedSeed> seed = SpacedSeed::Parse("11011");
  ASSERT_TRUE(seed.ok());
  EXPECT_EQ(seed->Encode("NCGTA"), -1);  // wildcard on a care position
  EXPECT_EQ(seed->Encode("ACGT"), -1);   // window shorter than the span
}

TEST(SpacedSeedTest, AllOnesMatchesForEachInterval) {
  const std::string seq = "ACGTACGTNACCGGTTACGT";
  for (int n : {4, 6, 8}) {
    Result<SpacedSeed> seed = SpacedSeed::Parse(std::string(n, '1'));
    ASSERT_TRUE(seed.ok());
    for (uint32_t stride : {1u, 3u}) {
      EXPECT_EQ(SpacedTerms(seq, *seed, stride),
                IntervalTerms(seq, n, stride))
          << "n=" << n << " stride=" << stride;
    }
  }
}

TEST(SpacedSeedTest, SpacedExtractionSkipsDontCareMismatches) {
  Result<SpacedSeed> seed = SpacedSeed::Parse("101");
  // Weight 2 is below kMinSeedWeight; use a real pattern instead.
  EXPECT_TRUE(seed.status().IsInvalidArgument());
  Result<SpacedSeed> real = SpacedSeed::Parse("110101");
  ASSERT_TRUE(real.ok());
  // Two sequences differing only at don't-care offsets 2 and 4 produce
  // identical terms at position 0.
  Extraction a = SpacedTerms("ACGTACGT", *real);
  Extraction b = SpacedTerms("ACATCCGT", *real);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(a[0], b[0]);
}

TEST(SeedExtractorTest, EmptyPatternIsContiguous) {
  Result<SeedExtractor> ex = SeedExtractor::Create(6, "");
  ASSERT_TRUE(ex.ok());
  EXPECT_FALSE(ex->spaced());
  EXPECT_EQ(ex->window(), 6);
  const std::string seq = "ACGTACGTACGT";
  Extraction got;
  ex->ForEach(seq, 1, [&](uint32_t pos, uint32_t term) {
    got.emplace_back(pos, term);
  });
  EXPECT_EQ(got, IntervalTerms(seq, 6));
}

TEST(SeedExtractorTest, SpacedPatternUsesSpanWindow) {
  Result<SeedExtractor> ex = SeedExtractor::Create(5, "1101011");
  ASSERT_TRUE(ex.ok());
  EXPECT_TRUE(ex->spaced());
  EXPECT_EQ(ex->window(), 7);
}

TEST(SeedExtractorTest, RejectsWeightMismatch) {
  EXPECT_TRUE(
      SeedExtractor::Create(6, "1101011").status().IsInvalidArgument());
  EXPECT_TRUE(SeedExtractor::Create(5, "bad").status().IsInvalidArgument());
}

}  // namespace
}  // namespace cafe
