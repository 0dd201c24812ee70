// Alignment score statistics (Karlin-Altschul / Gumbel).
//
// Local alignment scores of unrelated sequences follow an extreme-value
// (Gumbel) distribution, so a raw score S converts to
//   bit score  = (lambda*S - ln K) / ln 2
//   E-value    = K * m * n * exp(-lambda * S)
// For ungapped scoring, lambda is the unique positive root of
//   sum_ij p_i p_j exp(lambda * s_ij) = 1
// (Karlin & Altschul, 1990), solved here exactly by bisection. For
// gapped scoring no closed form exists; CalibrateGumbel fits (lambda, K)
// empirically from Smith-Waterman scores of random sequence pairs, the
// standard practice since BLAST 2.

#ifndef CAFE_ALIGN_STATISTICS_H_
#define CAFE_ALIGN_STATISTICS_H_

#include <array>
#include <vector>

#include "align/scoring.h"
#include "util/status.h"

namespace cafe {

/// Gumbel (extreme-value) parameters: the (lambda, K) pair of the
/// Karlin-Altschul theory.
struct GumbelParams {
  double lambda = 0.0;
  double k = 0.0;
};

/// Uniform nucleotide background.
inline constexpr std::array<double, 4> kUniformComposition = {0.25, 0.25,
                                                              0.25, 0.25};

/// Exact ungapped lambda for a substitution-only scoring scheme over the
/// given base composition. Fails if the expected pair score is
/// non-negative (no positive root exists — the scheme cannot produce
/// local-alignment statistics).
Result<double> UngappedLambda(const ScoringScheme& scheme,
                              const std::array<double, 4>& composition);

/// Method-of-moments Gumbel fit from raw maximal scores of random
/// alignments between sequences of lengths m and n:
///   lambda = pi / (sqrt(6) * stddev),  K = exp(lambda*mu) / (m*n).
GumbelParams FitGumbel(const std::vector<int>& scores, uint64_t m,
                       uint64_t n);

/// Empirical calibration: Smith-Waterman scores of `trials` random pairs
/// (composition-weighted) of lengths m x n, fitted with FitGumbel.
/// Deterministic for a given seed. Costs trials * m * n DP cells.
Result<GumbelParams> CalibrateGumbel(
    const ScoringScheme& scheme, uint64_t m, uint64_t n, int trials,
    uint64_t seed,
    const std::array<double, 4>& composition = kUniformComposition);

/// bits = (lambda*S - ln K) / ln 2.
double BitScore(int raw_score, const GumbelParams& params);

/// E = K * m * n * exp(-lambda * S).
double Evalue(int raw_score, uint64_t query_length, uint64_t database_bases,
              const GumbelParams& params);

}  // namespace cafe

#endif  // CAFE_ALIGN_STATISTICS_H_
