#include "seqstore/packed_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "align/smith_waterman.h"
#include "align/xdrop.h"
#include "alphabet/nucleotide.h"
#include "seqstore/sequence_store.h"
#include "util/random.h"

namespace cafe {
namespace {

std::string RandomBases(size_t len, Rng* rng) {
  std::string s(len, 'A');
  for (char& c : s) c = CodeToBase(static_cast<int>(rng->Uniform(4)));
  return s;
}

// The oracle: equal bases in sa[apos, apos+len) vs sb[bpos, bpos+len),
// one character at a time. `len` must stay inside both strings.
size_t NaiveMatches(const std::string& sa, size_t apos,
                    const std::string& sb, size_t bpos, size_t len) {
  size_t n = 0;
  for (size_t i = 0; i < len; ++i) n += sa[apos + i] == sb[bpos + i];
  return n;
}

void ExpectMatchesNaive(const std::string& sa, size_t apos,
                        const std::string& sb, size_t bpos, size_t len) {
  Result<PackedQuery> a = PackedQuery::FromString(sa);
  Result<PackedQuery> b = PackedQuery::FromString(sb);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(PackedMatchCount(a->view(), apos, b->view(), bpos, len),
            NaiveMatches(sa, apos, sb, bpos, len))
      << "apos=" << apos << " bpos=" << bpos << " len=" << len;
}

TEST(PackedQueryTest, RoundTripPureBases) {
  Rng rng(1);
  for (size_t len : {0u, 1u, 3u, 4u, 5u, 31u, 32u, 33u, 200u}) {
    std::string seq = RandomBases(len, &rng);
    Result<PackedQuery> q = PackedQuery::FromString(seq);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->view().ToString(), seq) << len;
  }
}

TEST(PackedQueryTest, WildcardsSubstituted) {
  Result<PackedQuery> q = PackedQuery::FromString("ANRYT");
  ASSERT_TRUE(q.ok());
  // N -> A (first of ACGT), R -> A (first of AG), Y -> C (first of CT).
  EXPECT_EQ(q->view().ToString(), "AAACT");
}

TEST(PackedQueryTest, RejectsNonIupac) {
  EXPECT_TRUE(PackedQuery::FromString("AC-GT").status().IsInvalidArgument());
}

TEST(PackedViewTest, BaseCodeMatchesString) {
  Rng rng(2);
  std::string seq = RandomBases(100, &rng);
  Result<PackedQuery> q = PackedQuery::FromString(seq);
  ASSERT_TRUE(q.ok());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(q->view().BaseCode(i), BaseToCode(seq[i])) << i;
  }
}

TEST(PackedViewTest, Extract64AllOffsets) {
  Rng rng(3);
  std::string seq = RandomBases(100, &rng);
  Result<PackedQuery> q = PackedQuery::FromString(seq);
  ASSERT_TRUE(q.ok());
  for (size_t pos = 0; pos < seq.size(); ++pos) {
    int valid = 0;
    uint64_t w = q->view().Extract64(pos, &valid);
    size_t expect_valid = std::min<size_t>(32, seq.size() - pos);
    ASSERT_EQ(static_cast<size_t>(valid), expect_valid) << pos;
    for (int k = 0; k < valid; ++k) {
      int code = static_cast<int>((w >> (62 - 2 * k)) & 3);
      EXPECT_EQ(code, BaseToCode(seq[pos + k])) << "pos " << pos << " k "
                                                << k;
    }
  }
  int valid = -1;
  q->view().Extract64(seq.size(), &valid);
  EXPECT_EQ(valid, 0);
}

TEST(PackedMatchCountTest, MatchesNaive) {
  // Short windows, then long ones: up to ~1000 bases, so many windows
  // span 600+ bases. Random phases of both operands throughout.
  Rng rng(4);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t max_extra = trial < 100 ? 150 : 900;
    std::string sa = RandomBases(10 + rng.Uniform(max_extra), &rng);
    std::string sb = RandomBases(10 + rng.Uniform(max_extra), &rng);
    size_t apos = rng.Uniform(sa.size());
    size_t bpos = rng.Uniform(sb.size());
    size_t len = rng.Uniform(
        std::min(sa.size() - apos, sb.size() - bpos) + 1);
    ExpectMatchesNaive(sa, apos, sb, bpos, len);
  }
}

TEST(PackedMatchCountTest, AllPhaseCombinations) {
  // Every 2-bit phase of a against every phase of b: the sub-byte
  // splice in each 64-bit load depends on both.
  Rng rng(41);
  std::string sa = RandomBases(600, &rng);
  std::string sb = RandomBases(600, &rng);
  for (size_t apos = 0; apos < 4; ++apos) {
    for (size_t bpos = 0; bpos < 4; ++bpos) {
      ExpectMatchesNaive(sa, apos, sb, bpos, 500);
    }
  }
}

TEST(PackedMatchCountTest, BoundaryLengths) {
  // Lengths around the 32-base word and its multiples, off by one.
  Rng rng(42);
  std::string sa = RandomBases(1200, &rng);
  std::string sb = RandomBases(1200, &rng);
  for (size_t len : {0u,  1u,  3u,   31u,  32u,  63u,  64u,  65u,
                     127u, 128u, 129u, 191u, 192u, 255u, 256u, 257u,
                     511u, 512u, 1000u}) {
    ExpectMatchesNaive(sa, 2, sb, 3, len);
    ExpectMatchesNaive(sa, 0, sb, 0, len);
  }
}

TEST(PackedMatchCountTest, IdenticalAndDisjointRuns) {
  // All-match and all-mismatch windows stress the popcount accounting.
  Result<PackedQuery> a = PackedQuery::FromString(std::string(700, 'A'));
  Result<PackedQuery> t = PackedQuery::FromString(std::string(700, 'T'));
  ASSERT_TRUE(a.ok() && t.ok());
  EXPECT_EQ(PackedMatchCount(a->view(), 1, a->view(), 5, 600), 600u);
  EXPECT_EQ(PackedMatchCount(a->view(), 1, t->view(), 5, 600), 0u);
}

TEST(PackedMatchCountTest, WindowClampsToShorterOperand) {
  // len larger than what either operand has left: count over the
  // overlap only.
  Rng rng(44);
  std::string sa = RandomBases(300, &rng);
  std::string sb = RandomBases(200, &rng);
  Result<PackedQuery> a = PackedQuery::FromString(sa);
  Result<PackedQuery> b = PackedQuery::FromString(sb);
  ASSERT_TRUE(a.ok() && b.ok());
  const size_t want = NaiveMatches(sa, 10, sb, 50, 150);  // b runs out
  EXPECT_EQ(PackedMatchCount(a->view(), 10, b->view(), 50, 100000), want);
  // A length that does not fit an int clamps the same way.
  EXPECT_EQ(PackedMatchCount(a->view(), 10, b->view(), 50, SIZE_MAX), want);
}

TEST(PackedXDropTest, MatchesScalarOnRandomData) {
  Rng rng(5);
  ScoringScheme scheme;  // +5/-4; iupac-aware irrelevant for pure bases
  PairScoreTable table(scheme);
  for (int trial = 0; trial < 200; ++trial) {
    // Correlated sequences so extensions actually run.
    std::string sa = RandomBases(50 + rng.Uniform(300), &rng);
    std::string sb = sa;
    for (char& c : sb) {
      if (rng.Bernoulli(0.1)) c = CodeToBase(static_cast<int>(rng.Uniform(4)));
    }
    uint32_t seed_len = 8;
    uint32_t limit = static_cast<uint32_t>(sa.size()) - seed_len;
    uint32_t pos = static_cast<uint32_t>(rng.Uniform(limit));
    int xdrop = 5 + static_cast<int>(rng.Uniform(40));

    UngappedSegment scalar =
        XDropExtend(sa, sb, pos, pos, seed_len, table, xdrop);
    Result<PackedQuery> a = PackedQuery::FromString(sa);
    Result<PackedQuery> b = PackedQuery::FromString(sb);
    ASSERT_TRUE(a.ok() && b.ok());
    UngappedSegment packed =
        PackedXDropExtend(a->view(), b->view(), pos, pos, seed_len,
                          scheme.match, scheme.mismatch, xdrop);

    EXPECT_EQ(packed.score, scalar.score) << "trial " << trial;
    EXPECT_EQ(packed.query_begin, scalar.query_begin);
    EXPECT_EQ(packed.query_end, scalar.query_end);
    EXPECT_EQ(packed.target_begin, scalar.target_begin);
    EXPECT_EQ(packed.target_end, scalar.target_end);
  }
}

TEST(PackedXDropTest, DifferentDiagonals) {
  Rng rng(6);
  ScoringScheme scheme;
  PairScoreTable table(scheme);
  for (int trial = 0; trial < 50; ++trial) {
    std::string core = RandomBases(80, &rng);
    std::string sa = RandomBases(rng.Uniform(40), &rng) + core +
                     RandomBases(rng.Uniform(40), &rng);
    std::string sb = RandomBases(rng.Uniform(40), &rng) + core +
                     RandomBases(rng.Uniform(40), &rng);
    // Find the core in both (by construction).
    uint32_t apos = static_cast<uint32_t>(sa.find(core)) + 10;
    uint32_t bpos = static_cast<uint32_t>(sb.find(core)) + 10;
    UngappedSegment scalar =
        XDropExtend(sa, sb, apos, bpos, 8, table, 20);
    Result<PackedQuery> a = PackedQuery::FromString(sa);
    Result<PackedQuery> b = PackedQuery::FromString(sb);
    ASSERT_TRUE(a.ok() && b.ok());
    UngappedSegment packed = PackedXDropExtend(
        a->view(), b->view(), apos, bpos, 8, scheme.match, scheme.mismatch,
        20);
    EXPECT_EQ(packed.score, scalar.score);
    EXPECT_EQ(packed.query_begin, scalar.query_begin);
    EXPECT_EQ(packed.query_end, scalar.query_end);
  }
}

TEST(PackedStoreViewTest, ViewsPayloadWithoutDecode) {
  SequenceStore store;
  Rng rng(7);
  std::vector<std::string> seqs;
  for (int i = 0; i < 10; ++i) {
    seqs.push_back(RandomBases(50 + rng.Uniform(200), &rng));
    ASSERT_TRUE(store.Append(seqs.back()).ok());
  }
  for (uint32_t i = 0; i < 10; ++i) {
    Result<PackedView> view = store.GetPackedView(i);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->ToString(), seqs[i]) << i;
  }
  EXPECT_TRUE(store.GetPackedView(99).status().IsNotFound());
}

TEST(PackedStoreViewTest, WildcardsAppearSubstituted) {
  SequenceStore store;
  ASSERT_TRUE(store.Append("ACGTNACGT").ok());
  Result<PackedView> view = store.GetPackedView(0);
  ASSERT_TRUE(view.ok());
  // N is stored as its first ambiguity base (A); the lossless path
  // (Get) still restores it.
  EXPECT_EQ(view->ToString(), "ACGTAACGT");
  std::string full;
  ASSERT_TRUE(store.Get(0, &full).ok());
  EXPECT_EQ(full, "ACGTNACGT");
}

TEST(PackedStoreViewTest, StoreQueryComparison) {
  // End-to-end: compare a packed query against a store-resident packed
  // sequence without any decode.
  SequenceStore store;
  Rng rng(8);
  std::string target = RandomBases(500, &rng);
  std::string probe = target.substr(200, 64);
  ASSERT_TRUE(store.Append(target).ok());
  Result<PackedView> view = store.GetPackedView(0);
  Result<PackedQuery> query = PackedQuery::FromString(probe);
  ASSERT_TRUE(view.ok() && query.ok());
  EXPECT_EQ(PackedMatchCount(query->view(), 0, *view, 200, 64), 64u);
  UngappedSegment seg =
      PackedXDropExtend(query->view(), *view, 0, 200, 16, 5, -4, 20);
  EXPECT_GE(seg.score, 64 * 5);
  EXPECT_EQ(seg.target_begin, 200u);
}

}  // namespace
}  // namespace cafe
