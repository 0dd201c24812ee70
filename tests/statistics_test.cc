#include "align/statistics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "alphabet/nucleotide.h"

namespace cafe {
namespace {

TEST(UngappedLambdaTest, SatisfiesDefiningEquation) {
  ScoringScheme s;  // +5/-4
  Result<double> lambda = UngappedLambda(s, kUniformComposition);
  ASSERT_TRUE(lambda.ok()) << lambda.status().ToString();
  EXPECT_GT(*lambda, 0.0);
  // Check sum p_i p_j exp(lambda s_ij) == 1.
  double total = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      total += 0.0625 *
               std::exp(*lambda * s.Score(CodeToBase(i), CodeToBase(j)));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(UngappedLambdaTest, KnownClosedForm) {
  // For match +1 / mismatch -1 with uniform composition:
  //   (1/4) e^l + (3/4) e^-l = 1  =>  e^l = 3  =>  lambda = ln 3.
  ScoringScheme s;
  s.match = 1;
  s.mismatch = -1;
  Result<double> lambda = UngappedLambda(s, kUniformComposition);
  ASSERT_TRUE(lambda.ok());
  EXPECT_NEAR(*lambda, std::log(3.0), 1e-9);
}

TEST(UngappedLambdaTest, StrongerMatchMeansSmallerLambda) {
  ScoringScheme weak;
  weak.match = 1;
  weak.mismatch = -3;
  ScoringScheme strong;
  strong.match = 10;
  strong.mismatch = -30;
  Result<double> lw = UngappedLambda(weak, kUniformComposition);
  Result<double> ls = UngappedLambda(strong, kUniformComposition);
  ASSERT_TRUE(lw.ok() && ls.ok());
  // Scaling all scores by c scales lambda by 1/c.
  EXPECT_NEAR(*ls, *lw / 10.0, 1e-9);
}

TEST(UngappedLambdaTest, RejectsPositiveExpectation) {
  ScoringScheme s;
  s.match = 5;
  s.mismatch = -1;  // expected score (5 - 3)/4 > 0
  EXPECT_TRUE(UngappedLambda(s, kUniformComposition)
                  .status()
                  .IsInvalidArgument());
}

TEST(UngappedLambdaTest, SkewedComposition) {
  ScoringScheme s;
  std::array<double, 4> skew = {0.4, 0.1, 0.1, 0.4};
  Result<double> lambda = UngappedLambda(s, skew);
  ASSERT_TRUE(lambda.ok());
  Result<double> uniform = UngappedLambda(s, kUniformComposition);
  ASSERT_TRUE(uniform.ok());
  // AT-rich composition raises chance matches, lowering lambda.
  EXPECT_LT(*lambda, *uniform);
}

TEST(FitGumbelTest, RecoversSyntheticGumbel) {
  // Draw from a known Gumbel(mu=50, lambda=0.2) and refit.
  const double mu = 50, lambda = 0.2;
  std::vector<int> scores;
  uint64_t state = 777;
  for (int i = 0; i < 200000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    if (u < 1e-12) u = 1e-12;
    double x = mu - std::log(-std::log(u)) / lambda;
    scores.push_back(static_cast<int>(std::lround(x)));
  }
  GumbelParams params = FitGumbel(scores, 100, 1000);
  EXPECT_NEAR(params.lambda, lambda, 0.02);
  // K satisfies mu = ln(K m n)/lambda.
  double mu_hat = std::log(params.k * 100 * 1000) / params.lambda;
  EXPECT_NEAR(mu_hat, mu, 1.5);
}

TEST(FitGumbelTest, DegenerateInputsYieldZero) {
  GumbelParams p = FitGumbel({}, 10, 10);
  EXPECT_EQ(p.lambda, 0.0);
  p = FitGumbel({5, 5, 5}, 10, 10);  // zero variance
  EXPECT_EQ(p.lambda, 0.0);
  p = FitGumbel({1, 9}, 0, 10);
  EXPECT_EQ(p.lambda, 0.0);
}

TEST(CalibrateGumbelTest, ProducesUsableParams) {
  ScoringScheme s;
  Result<GumbelParams> params = CalibrateGumbel(s, 100, 400, 60, 9);
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  EXPECT_GT(params->lambda, 0.0);
  EXPECT_GT(params->k, 0.0);
  // By construction of K, the E-value at the distribution's mode is ~1:
  // a typical random score should have E in a broad band around 1.
  Result<GumbelParams> check = CalibrateGumbel(s, 100, 400, 60, 10);
  ASSERT_TRUE(check.ok());
  // Score at E=1: S* = ln(K m n)/lambda; recompute under the second fit.
  double s_star = std::log(params->k * 100 * 400) / params->lambda;
  double e = Evalue(static_cast<int>(s_star), 100, 400, *check);
  EXPECT_GT(e, 0.05);
  EXPECT_LT(e, 20.0);
}

TEST(CalibrateGumbelTest, Deterministic) {
  ScoringScheme s;
  Result<GumbelParams> a = CalibrateGumbel(s, 80, 200, 30, 5);
  Result<GumbelParams> b = CalibrateGumbel(s, 80, 200, 30, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->lambda, b->lambda);
  EXPECT_EQ(a->k, b->k);
}

TEST(CalibrateGumbelTest, RejectsBadArgs) {
  ScoringScheme s;
  EXPECT_TRUE(CalibrateGumbel(s, 0, 10, 10, 1).status().IsInvalidArgument());
  EXPECT_TRUE(CalibrateGumbel(s, 10, 10, 1, 1).status().IsInvalidArgument());
}

TEST(ScoreConversionTest, BitScoreMonotonic) {
  GumbelParams params{0.19, 0.35};
  EXPECT_LT(BitScore(50, params), BitScore(100, params));
  EXPECT_GT(Evalue(50, 100, 1000000, params),
            Evalue(100, 100, 1000000, params));
}

TEST(ScoreConversionTest, EvalueScalesWithDatabase) {
  GumbelParams params{0.19, 0.35};
  double small = Evalue(80, 100, 1000000, params);
  double large = Evalue(80, 100, 10000000, params);
  EXPECT_NEAR(large / small, 10.0, 1e-9);
}

TEST(ScoreConversionTest, DoublingBitsSquaresInverseEvalue) {
  // E = m*n*2^{-bits}: +10 bits => E shrinks 1024x.
  GumbelParams params{0.19, 0.35};
  double ln2 = std::log(2.0);
  int s1 = 100;
  int s2 = s1 + static_cast<int>(std::lround(10 * ln2 / params.lambda));
  double ratio = Evalue(s1, 100, 1000000, params) /
                 Evalue(s2, 100, 1000000, params);
  EXPECT_NEAR(std::log2(ratio), 10.0, 0.3);
}

}  // namespace
}  // namespace cafe
