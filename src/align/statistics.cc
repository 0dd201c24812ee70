#include "align/statistics.h"

#include <cmath>

#include "align/smith_waterman.h"
#include "alphabet/nucleotide.h"
#include "util/random.h"

namespace cafe {
namespace {

constexpr double kLn2 = 0.6931471805599453;
constexpr double kEulerGamma = 0.5772156649015329;

// sum_ij p_i p_j exp(lambda * s_ij) for the 4x4 base block.
double PairExpSum(const ScoringScheme& scheme,
                  const std::array<double, 4>& p, double lambda) {
  double total = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      int s = scheme.Score(CodeToBase(i), CodeToBase(j));
      total += p[i] * p[j] * std::exp(lambda * s);
    }
  }
  return total;
}

}  // namespace

Result<double> UngappedLambda(const ScoringScheme& scheme,
                              const std::array<double, 4>& composition) {
  CAFE_RETURN_IF_ERROR(scheme.Validate());
  double psum = 0;
  for (double p : composition) {
    if (p < 0) return Status::InvalidArgument("negative composition");
    psum += p;
  }
  if (psum <= 0) return Status::InvalidArgument("empty composition");
  std::array<double, 4> p = composition;
  for (double& v : p) v /= psum;

  // Expected pair score must be negative for a positive root to exist.
  double expected = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      expected += p[i] * p[j] *
                  scheme.Score(CodeToBase(i), CodeToBase(j));
    }
  }
  if (expected >= 0) {
    return Status::InvalidArgument(
        "expected pair score is non-negative; no Karlin-Altschul "
        "statistics exist for this scheme/composition");
  }

  // f(lambda) = PairExpSum - 1: f(0) = 0, f'(0) = expected < 0, and
  // f -> +inf as lambda grows (match scores are positive), so the
  // positive root is bracketed by doubling then found by bisection.
  double hi = 1e-3;
  while (PairExpSum(scheme, p, hi) < 1.0) {
    hi *= 2;
    if (hi > 1e3) return Status::Internal("lambda bracket failed");
  }
  double lo = hi / 2;
  // `lo` may still be past the root if the first doubling overshot;
  // rewind toward zero until f(lo) < 1.
  while (lo > 1e-12 && PairExpSum(scheme, p, lo) >= 1.0) lo /= 2;
  for (int iter = 0; iter < 200; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (PairExpSum(scheme, p, mid) < 1.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

GumbelParams FitGumbel(const std::vector<int>& scores, uint64_t m,
                       uint64_t n) {
  GumbelParams params;
  if (scores.size() < 2 || m == 0 || n == 0) return params;
  double mean = 0;
  for (int s : scores) mean += s;
  mean /= static_cast<double>(scores.size());
  double var = 0;
  for (int s : scores) var += (s - mean) * (s - mean);
  var /= static_cast<double>(scores.size() - 1);
  if (var <= 0) return params;

  double lambda = 3.141592653589793 / std::sqrt(6.0 * var);
  double mu = mean - kEulerGamma / lambda;
  double k = std::exp(lambda * mu) /
             (static_cast<double>(m) * static_cast<double>(n));
  params.lambda = lambda;
  params.k = k;
  return params;
}

Result<GumbelParams> CalibrateGumbel(
    const ScoringScheme& scheme, uint64_t m, uint64_t n, int trials,
    uint64_t seed, const std::array<double, 4>& composition) {
  CAFE_RETURN_IF_ERROR(scheme.Validate());
  if (m == 0 || n == 0 || trials < 2) {
    return Status::InvalidArgument("need m, n > 0 and trials >= 2");
  }
  double psum =
      composition[0] + composition[1] + composition[2] + composition[3];
  if (psum <= 0) return Status::InvalidArgument("empty composition");
  double cum[4];
  double run = 0;
  for (int i = 0; i < 4; ++i) {
    run += composition[i] / psum;
    cum[i] = run;
  }

  Rng rng(seed);
  auto random_seq = [&](uint64_t len) {
    std::string s(len, 'A');
    for (char& c : s) {
      double u = rng.NextDouble();
      int code = 0;
      while (code < 3 && u > cum[code]) ++code;
      c = CodeToBase(code);
    }
    return s;
  };

  Aligner aligner(scheme);
  std::vector<int> scores;
  scores.reserve(static_cast<size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    std::string a = random_seq(m);
    std::string b = random_seq(n);
    scores.push_back(aligner.ScoreOnly(a, b));
  }
  GumbelParams params = FitGumbel(scores, m, n);
  if (params.lambda <= 0 || params.k <= 0) {
    return Status::Internal("gumbel fit degenerate");
  }
  return params;
}

double BitScore(int raw_score, const GumbelParams& params) {
  return (params.lambda * raw_score - std::log(params.k)) / kLn2;
}

double Evalue(int raw_score, uint64_t query_length, uint64_t database_bases,
              const GumbelParams& params) {
  const double mn = static_cast<double>(query_length) *
                    static_cast<double>(database_bases);
  return params.k * mn * std::exp(-params.lambda * raw_score);
}

}  // namespace cafe
