#include "align/scoring.h"

#include <gtest/gtest.h>

#include "align/smith_waterman.h"

namespace cafe {
namespace {

TEST(ScoringTest, DefaultsAreValid) {
  ScoringScheme s;
  EXPECT_TRUE(s.Validate().ok());
}

TEST(ScoringTest, MatchAndMismatch) {
  ScoringScheme s;
  EXPECT_EQ(s.Score('A', 'A'), s.match);
  EXPECT_EQ(s.Score('A', 'C'), s.mismatch);
  EXPECT_EQ(s.Score('G', 'G'), s.match);
  EXPECT_EQ(s.Score('T', 'G'), s.mismatch);
}

TEST(ScoringTest, WildcardNeutralWhenAware) {
  ScoringScheme s;
  s.iupac_aware = true;
  s.wildcard_score = 0;
  EXPECT_EQ(s.Score('N', 'A'), 0);
  EXPECT_EQ(s.Score('A', 'N'), 0);
  EXPECT_EQ(s.Score('R', 'A'), 0);   // compatible
  EXPECT_EQ(s.Score('R', 'C'), s.mismatch);  // incompatible
  EXPECT_EQ(s.Score('N', 'N'), 0);
}

TEST(ScoringTest, WildcardAsMismatchWhenUnaware) {
  ScoringScheme s;
  s.iupac_aware = false;
  EXPECT_EQ(s.Score('N', 'A'), s.mismatch);
  // Identical non-base characters compare equal under the unaware rule.
  EXPECT_EQ(s.Score('N', 'N'), s.match);
}

TEST(ScoringTest, ValidationCatchesBadSchemes) {
  ScoringScheme s;
  s.match = 0;
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
  s = ScoringScheme();
  s.mismatch = 1;
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
  s = ScoringScheme();
  s.gap_open = 0;
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
  s = ScoringScheme();
  s.gap_extend = -20;  // more negative than open
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(PairScoreTableTest, MatchesScheme) {
  ScoringScheme s;
  PairScoreTable table(s);
  const std::string alphabet = "ACGTNRYSWKMBDHVacgt?";
  for (char a : alphabet) {
    for (char b : alphabet) {
      EXPECT_EQ(table(a, b), s.Score(a, b)) << a << " vs " << b;
    }
  }
}

TEST(PairScoreTableTest, RowAccessor) {
  ScoringScheme s;
  PairScoreTable table(s);
  const int16_t* row = table.Row('A');
  EXPECT_EQ(row[static_cast<uint8_t>('A')], s.match);
  EXPECT_EQ(row[static_cast<uint8_t>('C')], s.mismatch);
}

// Every entry of `table` equals the fresh table of `scheme`.
void ExpectTableOf(const ScoringScheme& scheme, const PairScoreTable& table) {
  const PairScoreTable fresh(scheme);
  for (int a = 0; a < 256; ++a) {
    const int16_t* got = table.Row(static_cast<char>(a));
    const int16_t* want = fresh.Row(static_cast<char>(a));
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(got[b], want[b]) << a << " vs " << b;
    }
  }
}

TEST(PairScoreTableTest, AlignersShareOneTablePerScheme) {
  ScoringScheme s;
  Aligner first(s);
  Aligner second(s);
  EXPECT_EQ(&first.table(), &second.table());
  ExpectTableOf(s, first.table());

  // Another scheme takes the shared slot with a table of its own; the
  // first aligners keep theirs, unchanged.
  ScoringScheme other;
  other.match = 2;
  other.mismatch = -7;
  other.iupac_aware = false;
  Aligner third(other);
  EXPECT_NE(&third.table(), &first.table());
  ExpectTableOf(other, third.table());
  EXPECT_EQ(&first.table(), &second.table());
  ExpectTableOf(s, first.table());
  EXPECT_EQ(PairScoreTable::Shared(other).get(), &third.table());
}

}  // namespace
}  // namespace cafe
