// Oracle tests for the vectorized packed coarse scan: every dispatch
// tier of PackedMatchCount must return the identical count as the
// scalar path, across every 2-bit phase of both operands and across the
// head/bulk/tail boundary lengths.

#include "seqstore/packed_scan_simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "alphabet/nucleotide.h"
#include "seqstore/packed_view.h"
#include "util/random.h"
#include "util/simd.h"

namespace cafe {
namespace {

// Every tier this CPU can actually run (forcing a wider tier than the
// hardware supports would fault inside the kernel).
std::vector<SimdLevel> TestLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectCpuSimdLevel() >= SimdLevel::kSse2)
    levels.push_back(SimdLevel::kSse2);
  if (DetectCpuSimdLevel() >= SimdLevel::kAvx2)
    levels.push_back(SimdLevel::kAvx2);
  return levels;
}

std::string RandomBases(size_t len, Rng* rng) {
  std::string s(len, 'A');
  for (char& c : s) c = CodeToBase(static_cast<int>(rng->Uniform(4)));
  return s;
}

size_t NaiveMatches(const std::string& a, size_t apos, const std::string& b,
                    size_t bpos, size_t len) {
  size_t n = 0;
  for (size_t i = 0; i < len; ++i) n += a[apos + i] == b[bpos + i];
  return n;
}

// Counts matches at every tier and checks each equals the naive count.
void ExpectAllTiersMatch(const std::string& sa, size_t apos,
                         const std::string& sb, size_t bpos, size_t len) {
  Result<PackedQuery> a = PackedQuery::FromString(sa);
  Result<PackedQuery> b = PackedQuery::FromString(sb);
  ASSERT_TRUE(a.ok() && b.ok());
  size_t want = NaiveMatches(sa, apos, sb, bpos, len);
  for (SimdLevel level : TestLevels()) {
    EXPECT_EQ(PackedMatchCount(a->view(), apos, b->view(), bpos, len, level),
              want)
        << SimdLevelName(level) << " apos=" << apos << " bpos=" << bpos
        << " len=" << len;
  }
}

TEST(PackedScanSimdTest, AllPhaseCombos) {
  // Every 2-bit phase of a x every phase of b: the in-register splice
  // shift (0/2/4/6 bits) and the head alignment both depend on these.
  Rng rng(41);
  std::string sa = RandomBases(600, &rng);
  std::string sb = RandomBases(600, &rng);
  for (size_t apos = 0; apos < 4; ++apos) {
    for (size_t bpos = 0; bpos < 4; ++bpos) {
      ExpectAllTiersMatch(sa, apos, sb, bpos, 500);
    }
  }
}

TEST(PackedScanSimdTest, BoundaryLengths) {
  // Lengths straddling the SIMD minimum (64 bases) and the SSE2/AVX2
  // block sizes (64/128 bases per block), plus off-by-ones.
  Rng rng(42);
  std::string sa = RandomBases(1200, &rng);
  std::string sb = RandomBases(1200, &rng);
  for (size_t len : {0u,  1u,  3u,   31u,  32u,  63u,  64u,  65u,
                     127u, 128u, 129u, 191u, 192u, 255u, 256u, 257u,
                     511u, 512u, 1000u}) {
    ExpectAllTiersMatch(sa, 2, sb, 3, len);
    ExpectAllTiersMatch(sa, 0, sb, 0, len);
  }
}

TEST(PackedScanSimdTest, RandomizedAgainstNaive) {
  Rng rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    std::string sa = RandomBases(80 + rng.Uniform(900), &rng);
    std::string sb = RandomBases(80 + rng.Uniform(900), &rng);
    size_t apos = rng.Uniform(sa.size());
    size_t bpos = rng.Uniform(sb.size());
    size_t len =
        rng.Uniform(std::min(sa.size() - apos, sb.size() - bpos) + 1);
    ExpectAllTiersMatch(sa, apos, sb, bpos, len);
  }
}

TEST(PackedScanSimdTest, IdenticalAndDisjointRuns) {
  // All-match and all-mismatch stress the popcount accumulation paths.
  std::string all_a(700, 'A');
  std::string all_t(700, 'T');
  for (SimdLevel level : TestLevels()) {
    Result<PackedQuery> a = PackedQuery::FromString(all_a);
    Result<PackedQuery> t = PackedQuery::FromString(all_t);
    ASSERT_TRUE(a.ok() && t.ok());
    EXPECT_EQ(PackedMatchCount(a->view(), 1, a->view(), 5, 600, level), 600u)
        << SimdLevelName(level);
    EXPECT_EQ(PackedMatchCount(a->view(), 1, t->view(), 5, 600, level), 0u)
        << SimdLevelName(level);
  }
}

TEST(PackedScanSimdTest, WindowClampsToShorterOperand) {
  // len larger than what either operand has left: count over the
  // overlap only, identically at every tier.
  Rng rng(44);
  std::string sa = RandomBases(300, &rng);
  std::string sb = RandomBases(200, &rng);
  Result<PackedQuery> a = PackedQuery::FromString(sa);
  Result<PackedQuery> b = PackedQuery::FromString(sb);
  ASSERT_TRUE(a.ok() && b.ok());
  size_t want = NaiveMatches(sa, 10, sb, 50, 150);  // b runs out at 150
  for (SimdLevel level : TestLevels()) {
    EXPECT_EQ(PackedMatchCount(a->view(), 10, b->view(), 50, 100000, level),
              want)
        << SimdLevelName(level);
  }
}

TEST(PackedScanSimdTest, BulkKernelDirect) {
  // PackedBulkMismatches at the raw-byte level: whole blocks only, and
  // bytes_done reports exactly the block-multiple consumed.
  Rng rng(45);
  std::string sa = RandomBases(2048, &rng);
  std::string sb = RandomBases(2048, &rng);
  Result<PackedQuery> a = PackedQuery::FromString(sa);
  Result<PackedQuery> b = PackedQuery::FromString(sb);
  ASSERT_TRUE(a.ok() && b.ok());
  for (SimdLevel level : TestLevels()) {
    if (level == SimdLevel::kScalar) continue;
    for (int shift : {0, 2, 4, 6}) {
      size_t nbytes = 100;  // not a block multiple on purpose
      size_t bytes_done = 0;
      size_t mismatches = PackedBulkMismatches(
          a->view().payload(), b->view().payload(), shift, nbytes, level,
          &bytes_done);
      size_t block = level == SimdLevel::kAvx2 ? 32 : 16;
      EXPECT_EQ(bytes_done, (nbytes / block) * block)
          << SimdLevelName(level) << " shift=" << shift;
      // Reference: compare base (4*i + k) of a against b offset by
      // shift/2 bases.
      size_t want = 0;
      size_t boff = static_cast<size_t>(shift) / 2;
      for (size_t i = 0; i < 4 * bytes_done; ++i) {
        want += a->view().BaseCode(i) != b->view().BaseCode(i + boff);
      }
      EXPECT_EQ(mismatches, want) << SimdLevelName(level)
                                  << " shift=" << shift;
    }
  }
}

TEST(PackedScanSimdTest, ScalarLevelSkipsBulkKernel) {
  uint8_t buf[64] = {0};
  size_t bytes_done = 123;
  EXPECT_EQ(PackedBulkMismatches(buf, buf, 0, 64, SimdLevel::kScalar,
                                 &bytes_done),
            0u);
  EXPECT_EQ(bytes_done, 0u);
}

TEST(PackedScanSimdTest, DefaultOverloadUsesActiveLevel) {
  Rng rng(46);
  std::string sa = RandomBases(500, &rng);
  std::string sb = RandomBases(500, &rng);
  Result<PackedQuery> a = PackedQuery::FromString(sa);
  Result<PackedQuery> b = PackedQuery::FromString(sb);
  ASSERT_TRUE(a.ok() && b.ok());
  size_t want = NaiveMatches(sa, 3, sb, 1, 400);
  for (SimdLevel level : TestLevels()) {
    internal::SetActiveSimdLevelForTest(level);
    EXPECT_EQ(PackedMatchCount(a->view(), 3, b->view(), 1, 400), want)
        << SimdLevelName(level);
  }
  internal::ResetActiveSimdLevelForTest();
}

TEST(PackedScanSimdTest, XDropEqualAcrossTiers) {
  // PackedXDropExtend rides on Extract64, not the bulk kernel, but the
  // coarse phase mixes both — pin down that forcing a tier never
  // changes extension results.
  Rng rng(47);
  for (int trial = 0; trial < 50; ++trial) {
    std::string sa = RandomBases(300, &rng);
    std::string sb = sa;
    for (char& c : sb) {
      if (rng.Bernoulli(0.1)) c = CodeToBase(static_cast<int>(rng.Uniform(4)));
    }
    Result<PackedQuery> a = PackedQuery::FromString(sa);
    Result<PackedQuery> b = PackedQuery::FromString(sb);
    ASSERT_TRUE(a.ok() && b.ok());
    uint32_t pos = static_cast<uint32_t>(rng.Uniform(280));
    internal::SetActiveSimdLevelForTest(SimdLevel::kScalar);
    UngappedSegment want =
        PackedXDropExtend(a->view(), b->view(), pos, pos, 8, 5, -4, 20);
    for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
      internal::SetActiveSimdLevelForTest(level);
      UngappedSegment got =
          PackedXDropExtend(a->view(), b->view(), pos, pos, 8, 5, -4, 20);
      EXPECT_EQ(got.score, want.score) << SimdLevelName(level);
      EXPECT_EQ(got.query_begin, want.query_begin);
      EXPECT_EQ(got.query_end, want.query_end);
    }
    internal::ResetActiveSimdLevelForTest();
  }
}

}  // namespace
}  // namespace cafe
