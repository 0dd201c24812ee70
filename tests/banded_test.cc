#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/smith_waterman.h"
#include "alphabet/nucleotide.h"
#include "util/random.h"

namespace cafe {
namespace {

std::string RandomSeq(size_t len, Rng* rng) {
  std::string s(len, 'A');
  for (char& c : s) c = CodeToBase(static_cast<int>(rng->Uniform(4)));
  return s;
}

TEST(BandedTest, EmptyAndDegenerate) {
  Aligner aligner;
  EXPECT_EQ(aligner.BandedScore("", "ACGT", 0, 8), 0);
  EXPECT_EQ(aligner.BandedScore("ACGT", "", 0, 8), 0);
  EXPECT_EQ(aligner.BandedScore("ACGT", "ACGT", 0, -1), 0);
}

TEST(BandedTest, PerfectMatchOnCenterDiagonal) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  EXPECT_EQ(aligner.BandedScore("ACGTACGT", "ACGTACGT", 0, 4),
            8 * s.match);
  // Band of zero still covers an exact diagonal alignment.
  EXPECT_EQ(aligner.BandedScore("ACGTACGT", "ACGTACGT", 0, 0),
            8 * s.match);
}

TEST(BandedTest, OffsetDiagonal) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  // Query matches target at offset 6: diagonal = +6.
  std::string q = "ACGTACGT";
  std::string t = "TTTTTT" + q + "CCC";
  EXPECT_EQ(aligner.BandedScore(q, t, 6, 2), 8 * s.match);
  // A band centred on the wrong diagonal (far away) misses the match.
  EXPECT_LT(aligner.BandedScore(q, t, -6, 2), 8 * s.match);
}

TEST(BandedTest, WideBandEqualsFullSmithWaterman) {
  Rng rng(555);
  Aligner aligner;
  for (int trial = 0; trial < 30; ++trial) {
    std::string q = RandomSeq(5 + rng.Uniform(40), &rng);
    std::string t = RandomSeq(5 + rng.Uniform(40), &rng);
    // A band wide enough to cover the entire matrix is exact.
    int band = static_cast<int>(q.size() + t.size());
    int64_t diag =
        (static_cast<int64_t>(t.size()) - static_cast<int64_t>(q.size())) /
        2;
    EXPECT_EQ(aligner.BandedScore(q, t, diag, band),
              aligner.ScoreOnly(q, t))
        << "q=" << q << " t=" << t;
  }
}

TEST(BandedTest, NarrowBandIsLowerBound) {
  Rng rng(777);
  Aligner aligner;
  for (int trial = 0; trial < 30; ++trial) {
    std::string q = RandomSeq(20 + rng.Uniform(40), &rng);
    std::string t = RandomSeq(20 + rng.Uniform(40), &rng);
    int full = aligner.ScoreOnly(q, t);
    for (int band : {0, 2, 8}) {
      EXPECT_LE(aligner.BandedScore(q, t, 0, band), full);
    }
  }
}

TEST(BandedTest, GapWithinBand) {
  Aligner aligner;
  const ScoringScheme& s = aligner.scheme();
  std::string t = "ACGTAAGCTATTGCACGGAT";
  std::string q = t.substr(0, 10) + "CC" + t.substr(10);
  int expected = 20 * s.match + s.gap_open + s.gap_extend;
  // Diagonal drifts from 0 to -2; band 4 covers it.
  EXPECT_EQ(aligner.BandedScore(q, t, 0, 4), expected);
  EXPECT_EQ(aligner.BandedScore(q, t, -1, 4), expected);
}

// A copy of `q` with ~10% substitutions and ~2% single-base indels.
std::string Diverge(const std::string& q, Rng* rng) {
  std::string out;
  for (char c : q) {
    const uint64_t roll = rng->Uniform(100);
    if (roll < 1) continue;  // deletion
    if (roll < 2) out.push_back(CodeToBase(static_cast<int>(rng->Uniform(4))));
    out.push_back(roll < 12 ? CodeToBase(static_cast<int>(rng->Uniform(4)))
                            : c);
  }
  return out;
}

// The sweep's four schemes. Validate rejects `opening` (a gap pays to
// open). Under valid schemes an out-of-band neighbour read as 0 instead
// of -inf never changes a score; under this one it does, so the sweep
// pins the kernel's -inf edges too.
std::vector<Aligner> SweepAligners() {
  ScoringScheme blastn;
  blastn.match = 1;
  blastn.mismatch = -3;
  blastn.gap_open = -5;
  blastn.gap_extend = -2;
  blastn.iupac_aware = false;
  ScoringScheme soft;
  soft.match = 2;
  soft.mismatch = -1;
  soft.gap_open = -3;
  soft.gap_extend = -1;
  soft.wildcard_score = 1;
  ScoringScheme opening;
  opening.gap_open = 2;
  opening.gap_extend = -3;
  return {Aligner(ScoringScheme()), Aligner(blastn), Aligner(soft),
          Aligner(opening)};
}

struct SweepCase {
  std::string q;
  std::string t;
  int64_t diag = 0;
  int band = 0;
};

// One sweep case: a band of 0-60, a query of 1-200 and a target of
// 1-400 bases (many shorter than the band), a diagonal from wholly left
// to wholly right of the matrix, ~2% N, and a diverged copy of the
// query planted on the diagonal in even trials.
SweepCase NextSweepCase(int trial, Rng* rng) {
  auto with_ns = [&](std::string s) {
    for (char& c : s) {
      if (rng->Uniform(50) == 0) c = 'N';
    }
    return s;
  };
  SweepCase c;
  c.band = static_cast<int>(rng->Uniform(61));
  c.q = with_ns(RandomSeq(1 + rng->Uniform(200), rng));
  std::string t = RandomSeq(1 + rng->Uniform(400), rng);
  const int64_t m = static_cast<int64_t>(c.q.size());
  const int64_t n = static_cast<int64_t>(t.size());
  c.diag = rng->UniformInt(-m - c.band - 2, n + c.band + 2);
  if (trial % 2 == 0) {
    const std::string copy = Diverge(c.q, rng);
    for (size_t p = 0; p < copy.size(); ++p) {
      const int64_t j = c.diag + static_cast<int64_t>(p);
      if (j >= 0 && j < n) t[static_cast<size_t>(j)] = copy[p];
    }
  }
  c.t = with_ns(std::move(t));
  return c;
}

// BandedScore (the clipped score-only loop) against BandedAlign (the
// direction-recording loop, its oracle): equal scores and equal cell
// accounting over the sweep's cases under its four schemes.
TEST(BandedTest, BandedAlignMatchesBandedScore) {
  std::vector<Aligner> aligners = SweepAligners();
  Rng rng(888);
  for (int trial = 0; trial < 10000; ++trial) {
    Aligner& aligner = aligners[trial % aligners.size()];
    const SweepCase c = NextSweepCase(trial, &rng);
    const std::string& q = c.q;
    const std::string& t = c.t;
    const int band = c.band;
    const int64_t diag = c.diag;
    const int64_t m = static_cast<int64_t>(q.size());

    const uint64_t before = aligner.cells_computed();
    const int score = aligner.BandedScore(q, t, diag, band);
    const uint64_t score_cells = aligner.cells_computed() - before;
    Result<LocalAlignment> a = aligner.BandedAlign(q, t, diag, band);
    const uint64_t align_cells =
        aligner.cells_computed() - before - score_cells;
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(score, a->score) << "trial " << trial << " band " << band
                               << " diag " << diag << " q=" << q
                               << " t=" << t;
    ASSERT_EQ(score_cells, align_cells) << "trial " << trial;
    ASSERT_EQ(score_cells, static_cast<uint64_t>(m) * (2 * band + 1));
  }
}

// Appends one traceback result, and the cells it cost, to `out`.
void AppendAlignment(const Result<LocalAlignment>& a, uint64_t cells,
                     std::string* out) {
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  *out += std::to_string(a->score) + ' ' + std::to_string(a->query_begin) +
          ' ' + std::to_string(a->query_end) + ' ' +
          std::to_string(a->target_begin) + ' ' +
          std::to_string(a->target_end) + ' ' + a->Cigar() + ' ' +
          std::to_string(cells) + '\n';
}

// Pins Align's and BandedAlign's outputs (score, coordinates, CIGAR and
// cells computed) on the first 2,000 sweep cases under all four schemes
// to one digest, so any change in what either traceback returns shows
// here.
TEST(BandedTest, TracebackOutputsPinned) {
  std::vector<Aligner> aligners = SweepAligners();
  Rng rng(888);
  std::string record;
  for (int trial = 0; trial < 2000; ++trial) {
    Aligner& aligner = aligners[trial % aligners.size()];
    const SweepCase c = NextSweepCase(trial, &rng);
    uint64_t before = aligner.cells_computed();
    Result<LocalAlignment> banded = aligner.BandedAlign(c.q, c.t, c.diag,
                                                        c.band);
    AppendAlignment(banded, aligner.cells_computed() - before, &record);
    before = aligner.cells_computed();
    Result<LocalAlignment> full = aligner.Align(c.q, c.t);
    AppendAlignment(full, aligner.cells_computed() - before, &record);
  }
  uint64_t digest = 14695981039346656037ull;  // FNV-1a, 64-bit
  for (char ch : record) {
    digest = (digest ^ static_cast<uint8_t>(ch)) * 1099511628211ull;
  }
  EXPECT_EQ(digest, 18368120570446541337ull);
}

TEST(BandedTest, BandedAlignTracebackCoordinates) {
  Aligner aligner;
  std::string q = "TTTTACGTACGTTTTT";
  std::string t = "GGGGACGTACGTGGGG";
  Result<LocalAlignment> a = aligner.BandedAlign(q, t, 0, 4);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->query_begin, 4u);
  EXPECT_EQ(a->query_end, 12u);
  EXPECT_EQ(a->target_begin, 4u);
  EXPECT_EQ(a->target_end, 12u);
  EXPECT_EQ(a->Cigar(), "8=");
}

TEST(BandedTest, BandedAlignOnShiftedDiagonal) {
  Aligner aligner;
  std::string q = "ACGTACGTAC";
  std::string t = std::string(25, 'T') + q;
  Result<LocalAlignment> a = aligner.BandedAlign(q, t, 25, 3);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->score, 10 * aligner.scheme().match);
  EXPECT_EQ(a->target_begin, 25u);
  EXPECT_EQ(a->target_end, 35u);
  EXPECT_EQ(a->Identity(), 1.0);
}

TEST(BandedTest, HomologRecoveredThroughIndels) {
  // A banded alignment around the true diagonal must recover most of the
  // score even with scattered indels, as long as drift < band.
  Aligner aligner;
  std::string core = "ACGGTTACAGCATTGACCGTAGGCATCAGGATTACAGGCA";
  std::string q = core;
  // Concatenation (rather than string::insert) sidesteps a GCC 12
  // -Wrestrict false positive (GCC PR105651). Equivalent to inserting
  // "G" at offset 10 and "TT" at offset 30 of the result.
  std::string t = core.substr(0, 10) + "G" + core.substr(10, 19) + "TT" +
                  core.substr(29);
  int banded = aligner.BandedScore(q, t, 0, 8);
  int full = aligner.ScoreOnly(q, t);
  EXPECT_EQ(banded, full);
}

TEST(BandedTest, BandedAlignMaxCellsGuard) {
  Aligner aligner;
  // A query of 8,193 bases and a band of 4,096 (8,193 slots per row)
  // record just over kMaxTracebackCells (2^26) direction bytes, however
  // short the target: rejected before the DP runs.
  std::string q(8193, 'A');
  ASSERT_GT(uint64_t{8193} * (2 * 4096 + 1), Aligner::kMaxTracebackCells);
  Result<LocalAlignment> a = aligner.BandedAlign(q, "ACGT", 0, 4096);
  EXPECT_TRUE(a.status().IsInvalidArgument());
  EXPECT_EQ(aligner.cells_computed(), 0u);
}

TEST(BandedTest, CellAccountingGrowsWithBand) {
  Aligner aligner;
  std::string q(50, 'A'), t(50, 'A');
  aligner.ResetCellCount();
  aligner.BandedScore(q, t, 0, 2);
  uint64_t narrow = aligner.cells_computed();
  aligner.ResetCellCount();
  aligner.BandedScore(q, t, 0, 20);
  uint64_t wide = aligner.cells_computed();
  EXPECT_LT(narrow, wide);
}

}  // namespace
}  // namespace cafe
