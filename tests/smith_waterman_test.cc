#include "align/smith_waterman.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "alphabet/nucleotide.h"
#include "util/random.h"

namespace cafe {
namespace {

// Independent reference implementation: full-matrix Gotoh local alignment,
// O(mn) memory, written as directly from the recurrences as possible.
int ReferenceScore(std::string_view q, std::string_view t,
                   const ScoringScheme& s) {
  const int m = static_cast<int>(q.size());
  const int n = static_cast<int>(t.size());
  const int kNeg = -1000000;
  std::vector<std::vector<int>> H(m + 1, std::vector<int>(n + 1, 0));
  std::vector<std::vector<int>> E(m + 1, std::vector<int>(n + 1, kNeg));
  std::vector<std::vector<int>> F(m + 1, std::vector<int>(n + 1, kNeg));
  int best = 0;
  for (int i = 1; i <= m; ++i) {
    for (int j = 1; j <= n; ++j) {
      E[i][j] = std::max(H[i][j - 1] + s.gap_open,
                         E[i][j - 1] + s.gap_extend);
      F[i][j] = std::max(H[i - 1][j] + s.gap_open,
                         F[i - 1][j] + s.gap_extend);
      int diag = H[i - 1][j - 1] + s.Score(q[i - 1], t[j - 1]);
      H[i][j] = std::max({0, diag, E[i][j], F[i][j]});
      best = std::max(best, H[i][j]);
    }
  }
  return best;
}

std::string RandomSeq(size_t len, Rng* rng) {
  std::string s(len, 'A');
  for (char& c : s) c = CodeToBase(static_cast<int>(rng->Uniform(4)));
  return s;
}

// Recomputes an alignment's score from its transcript.
int ScoreFromOps(const LocalAlignment& a, std::string_view q,
                 std::string_view t, const ScoringScheme& s) {
  int score = 0;
  size_t qi = a.query_begin, ti = a.target_begin;
  bool in_gap_q = false, in_gap_t = false;
  for (EditOp op : a.ops) {
    switch (op) {
      case EditOp::kMatch:
      case EditOp::kMismatch:
        score += s.Score(q[qi], t[ti]);
        ++qi;
        ++ti;
        in_gap_q = in_gap_t = false;
        break;
      case EditOp::kInsertion:
        score += in_gap_q ? s.gap_extend : s.gap_open;
        in_gap_q = true;
        in_gap_t = false;
        ++qi;
        break;
      case EditOp::kDeletion:
        score += in_gap_t ? s.gap_extend : s.gap_open;
        in_gap_t = true;
        in_gap_q = false;
        ++ti;
        break;
    }
  }
  EXPECT_EQ(qi, a.query_end);
  EXPECT_EQ(ti, a.target_end);
  return score;
}

TEST(SmithWatermanTest, EmptyInputs) {
  Aligner aligner;
  EXPECT_EQ(aligner.ScoreOnly("", "ACGT"), 0);
  EXPECT_EQ(aligner.ScoreOnly("ACGT", ""), 0);
  Result<LocalAlignment> a = aligner.Align("", "");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->score, 0);
}

TEST(SmithWatermanTest, PerfectMatch) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  EXPECT_EQ(aligner.ScoreOnly("ACGT", "ACGT"), 4 * s.match);
  EXPECT_EQ(aligner.ScoreOnly("ACGTACGT", "ACGTACGT"), 8 * s.match);
}

TEST(SmithWatermanTest, SubstringMatch) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  EXPECT_EQ(aligner.ScoreOnly("CGTA", "TTTTCGTATTTT"), 4 * s.match);
}

TEST(SmithWatermanTest, CompletelyDifferent) {
  Aligner aligner;
  EXPECT_EQ(aligner.ScoreOnly("AAAA", "CCCC"), 0);
}

TEST(SmithWatermanTest, MismatchInMiddle) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  // ACGTACGT vs ACGAACGT: best local alignment takes the mismatch.
  int expected = 7 * s.match + s.mismatch;
  EXPECT_EQ(aligner.ScoreOnly("ACGTACGT", "ACGAACGT"), expected);
}

TEST(SmithWatermanTest, GapHandling) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  // Query is the target with "CC" inserted in the middle. The two-base
  // gap (open + extend) beats aligning only one ungapped half.
  std::string t = "ACGTAAGCTATTGCACGGAT";
  std::string q = t.substr(0, 10) + "CC" + t.substr(10);
  int with_gap = 20 * s.match + s.gap_open + s.gap_extend;
  EXPECT_EQ(aligner.ScoreOnly(q, t), with_gap);
}

TEST(SmithWatermanTest, AgreesWithReferenceOnRandomInputs) {
  Rng rng(2024);
  ScoringScheme s;
  Aligner aligner(s);
  for (int trial = 0; trial < 60; ++trial) {
    std::string q = RandomSeq(1 + rng.Uniform(60), &rng);
    std::string t = RandomSeq(1 + rng.Uniform(60), &rng);
    EXPECT_EQ(aligner.ScoreOnly(q, t), ReferenceScore(q, t, s))
        << "q=" << q << " t=" << t;
  }
}

TEST(SmithWatermanTest, AgreesWithReferenceUnderOtherSchemes) {
  Rng rng(11);
  ScoringScheme s;
  s.match = 2;
  s.mismatch = -1;
  s.gap_open = -3;
  s.gap_extend = -1;
  Aligner aligner(s);
  for (int trial = 0; trial < 40; ++trial) {
    std::string q = RandomSeq(1 + rng.Uniform(40), &rng);
    std::string t = RandomSeq(1 + rng.Uniform(40), &rng);
    EXPECT_EQ(aligner.ScoreOnly(q, t), ReferenceScore(q, t, s));
  }
}

TEST(SmithWatermanTest, AlignScoreMatchesScoreOnly) {
  Rng rng(3030);
  Aligner aligner;
  for (int trial = 0; trial < 40; ++trial) {
    std::string q = RandomSeq(5 + rng.Uniform(80), &rng);
    std::string t = RandomSeq(5 + rng.Uniform(80), &rng);
    Result<LocalAlignment> a = aligner.Align(q, t);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->score, aligner.ScoreOnly(q, t));
  }
}

TEST(SmithWatermanTest, TracebackScoreConsistent) {
  Rng rng(4040);
  ScoringScheme s;
  Aligner aligner(s);
  for (int trial = 0; trial < 40; ++trial) {
    std::string q = RandomSeq(10 + rng.Uniform(60), &rng);
    std::string t = RandomSeq(10 + rng.Uniform(60), &rng);
    Result<LocalAlignment> a = aligner.Align(q, t);
    ASSERT_TRUE(a.ok());
    if (a->score == 0) continue;
    EXPECT_EQ(ScoreFromOps(*a, q, t, s), a->score);
  }
}

TEST(SmithWatermanTest, TracebackCoordinatesValid) {
  Aligner aligner;
  std::string q = "TTTTACGTACGTTTTT";
  std::string t = "GGGGACGTACGTGGGG";
  Result<LocalAlignment> a = aligner.Align(q, t);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->query_begin, 4u);
  EXPECT_EQ(a->query_end, 12u);
  EXPECT_EQ(a->target_begin, 4u);
  EXPECT_EQ(a->target_end, 12u);
  EXPECT_EQ(a->ops.size(), 8u);
  EXPECT_EQ(a->Identity(), 1.0);
}

TEST(SmithWatermanTest, WildcardNeutralAlignment) {
  ScoringScheme s;
  s.iupac_aware = true;
  Aligner aligner(s);
  // N scores 0: alignment through N neither helps nor hurts.
  int with_n = aligner.ScoreOnly("ACGTNACGT", "ACGTAACGT");
  int plain = aligner.ScoreOnly("ACGTAACGT", "ACGTAACGT");
  EXPECT_EQ(with_n, plain - s.match);
}

TEST(SmithWatermanTest, MaxCellsGuard) {
  Aligner aligner;
  // 8,193^2 cells is just over kMaxTracebackCells (2^26): rejected
  // before the DP runs, so no cell is counted.
  std::string q(8193, 'A');
  std::string t(8193, 'A');
  ASSERT_GT(uint64_t{8193} * 8193, Aligner::kMaxTracebackCells);
  Result<LocalAlignment> a = aligner.Align(q, t);
  EXPECT_TRUE(a.status().IsInvalidArgument());
  EXPECT_EQ(aligner.cells_computed(), 0u);
}

TEST(SmithWatermanTest, CellAccounting) {
  Aligner aligner;
  aligner.ResetCellCount();
  aligner.ScoreOnly("ACGTACGT", "ACGTACGTACGT");
  EXPECT_EQ(aligner.cells_computed(), 8u * 12u);
  aligner.ResetCellCount();
  EXPECT_EQ(aligner.cells_computed(), 0u);
}

TEST(SmithWatermanTest, LongGapAffinePreference) {
  // With affine gaps a single long gap must beat many short ones.
  ScoringScheme s;
  Aligner aligner(s);
  std::string q = "AAAAAAAAAA";
  std::string t = "AAAAACCCCCAAAAA";
  // Best: align 10 A's with a 5-base gap: 10*5 + (open + 4*extend).
  int expected = 10 * s.match + s.gap_open + 4 * s.gap_extend;
  EXPECT_EQ(aligner.ScoreOnly(q, t), std::max(expected, 5 * s.match));
}

}  // namespace
}  // namespace cafe
