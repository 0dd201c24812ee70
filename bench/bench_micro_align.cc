// Microbenchmarks (google-benchmark) for the alignment kernels: cells/s
// of score-only Smith-Waterman (per SIMD dispatch tier), banded
// alignment, traceback alignment and X-drop extension — the constants
// that size experiments E3-E5.
//
// Besides the google-benchmark suite, `--gate` runs the kernel gate: it
// measures the striped Smith-Waterman and the banded score loop against
// the scalar full Smith-Waterman in the same process and emits the
// bench::JsonMetrics document tools/benchgate.py compares against
// bench/baselines/micro_align.json in CI. Gate metrics are within-run
// rate ratios plus hard agreement invariants — stable across machines,
// unlike absolute cell rates.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "align/smith_waterman.h"
#include "align/xdrop.h"
#include "bench_common.h"
#include "seqstore/packed_view.h"
#include "alphabet/nucleotide.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/timer.h"

namespace cafe {
namespace {

std::string RandomSeq(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = CodeToBase(static_cast<int>(rng.Uniform(4)));
  return s;
}

void BM_SmithWatermanScore(benchmark::State& state) {
  const size_t qlen = static_cast<size_t>(state.range(0));
  const size_t tlen = static_cast<size_t>(state.range(1));
  const SimdLevel level = static_cast<SimdLevel>(state.range(2));
  if (level > DetectCpuSimdLevel()) {
    state.SkipWithError("tier not supported by this CPU");
    return;
  }
  std::string q = RandomSeq(qlen, 1);
  std::string t = RandomSeq(tlen, 2);
  Aligner aligner;
  aligner.set_simd_level(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.ScoreOnly(q, t));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(qlen * tlen));
  state.counters["Mcells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * qlen * tlen / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_SmithWatermanScore)
    ->Args({100, 1000, 0})
    ->Args({400, 1000, 0})
    ->Args({400, 1000, 1})
    ->Args({400, 1000, 2})
    ->Args({400, 10000, 0})
    ->Args({400, 10000, 2});

void BM_SmithWatermanAlign(benchmark::State& state) {
  std::string q = RandomSeq(300, 3);
  std::string t = RandomSeq(1000, 4);
  Aligner aligner;
  for (auto _ : state) {
    Result<LocalAlignment> a = aligner.Align(q, t);
    benchmark::DoNotOptimize(a.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          300 * 1000);
}
BENCHMARK(BM_SmithWatermanAlign);

void BM_BandedScore(benchmark::State& state) {
  const int band = static_cast<int>(state.range(0));
  std::string q = RandomSeq(400, 5);
  std::string t = RandomSeq(1000, 6);
  Aligner aligner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.BandedScore(q, t, 0, band));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 400 *
                          (2 * band + 1));
}
BENCHMARK(BM_BandedScore)->Arg(16)->Arg(48)->Arg(128);

void BM_XDropExtend(benchmark::State& state) {
  std::string core = RandomSeq(2000, 7);
  std::string q = core;
  std::string t = core;  // identical: worst case, extends end to end
  ScoringScheme scheme;
  PairScoreTable table(scheme);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        XDropExtend(q, t, 1000, 1000, 11, table, 20));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_XDropExtend);

void BM_PackedMatchCount(benchmark::State& state) {
  std::string sa = RandomSeq(4096, 8);
  std::string sb = RandomSeq(4096, 9);
  auto a = PackedQuery::FromString(sa);
  auto b = PackedQuery::FromString(sb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PackedMatchCount(a->view(), 1, b->view(), 3, 4000));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4000);
}
BENCHMARK(BM_PackedMatchCount);

void BM_PackedXDrop(benchmark::State& state) {
  std::string core = RandomSeq(2000, 10);
  auto a = PackedQuery::FromString(core);
  auto b = PackedQuery::FromString(core);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackedXDropExtend(
        a->view(), b->view(), 1000, 1000, 11, 5, -4, 20));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_PackedXDrop);

void BM_PairScoreTableBuild(benchmark::State& state) {
  ScoringScheme scheme;
  for (auto _ : state) {
    PairScoreTable table(scheme);
    benchmark::DoNotOptimize(table('A', 'C'));
  }
}
BENCHMARK(BM_PairScoreTableBuild);

// --- Kernel gate --------------------------------------------------------
//
// Hand-timed (no google-benchmark) so the emitted document is exactly
// the {"bench","metrics"} shape benchgate expects. Each round times the
// scalar full loop, the widest striped tier and the banded loop back to
// back, so all three see the same host state; each keeps its best
// round. The gated numbers are ratios to the scalar rate.

struct KernelRates {
  double scalar_mcells = 0.0;   // full ScoreOnly, scalar tier
  double vector_mcells = 0.0;   // full ScoreOnly, widest tier
  double banded_mcells = 0.0;   // BandedScore, band 48
};

/// Best-of-7 Mcells/s on q = 400, t = 1000: full ScoreOnly at scalar
/// and at `level`, and BandedScore with band 48 on the middle diagonal
/// (the serve_default candidate shape: the band lies inside the target).
KernelRates MeasureRates(SimdLevel level) {
  const size_t qlen = 400, tlen = 1000;
  const int band = 48;
  const int64_t diagonal = 300;
  std::string q = RandomSeq(qlen, 1);
  std::string t = RandomSeq(tlen, 2);
  Aligner scalar, vec;
  scalar.set_simd_level(SimdLevel::kScalar);
  vec.set_simd_level(level);
  volatile int sink = 0;
  // Warm caches and the striped profile.
  sink = sink + scalar.ScoreOnly(q, t) + vec.ScoreOnly(q, t) +
         scalar.BandedScore(q, t, diagonal, band);
  const double full_cells = static_cast<double>(qlen) * tlen;
  const double band_cells = static_cast<double>(qlen) * (2 * band + 1);
  auto rate = [&](int reps, double cells, auto&& call) {
    WallTimer timer;
    for (int i = 0; i < reps; ++i) sink = sink + call();
    return reps * cells / 1e6 / timer.Seconds();
  };
  KernelRates best;
  for (int round = 0; round < 7; ++round) {
    best.scalar_mcells =
        std::max(best.scalar_mcells, rate(50, full_cells, [&] {
                   return scalar.ScoreOnly(q, t);
                 }));
    best.vector_mcells =
        std::max(best.vector_mcells, rate(50, full_cells, [&] {
                   return vec.ScoreOnly(q, t);
                 }));
    best.banded_mcells =
        std::max(best.banded_mcells, rate(200, band_cells, [&] {
                   return scalar.BandedScore(q, t, diagonal, band);
                 }));
  }
  return best;
}

/// 1.0 iff the widest tier agrees with scalar on a randomized sweep.
double StripedAgreement(SimdLevel level) {
  Rng rng(77);
  ScoringScheme scheme;
  Aligner vec(scheme), oracle(scheme);
  vec.set_simd_level(level);
  oracle.set_simd_level(SimdLevel::kScalar);
  for (int trial = 0; trial < 200; ++trial) {
    std::string q = RandomSeq(1 + rng.Uniform(150), rng.Uniform(1u << 30));
    std::string t = RandomSeq(1 + rng.Uniform(400), rng.Uniform(1u << 30));
    if (vec.ScoreOnly(q, t) != oracle.ScoreOnly(q, t)) return 0.0;
  }
  return 1.0;
}

/// 1.0 iff BandedScore (score-only loop) and BandedAlign (traceback
/// loop) agree on score and cell count over a randomized sweep of
/// bands, lengths and diagonals, edges of the matrix included.
double BandedAgreement() {
  Rng rng(78);
  Aligner aligner;
  for (int trial = 0; trial < 500; ++trial) {
    const int band = static_cast<int>(rng.Uniform(61));
    std::string q = RandomSeq(1 + rng.Uniform(200), rng.Uniform(1u << 30));
    std::string t = RandomSeq(1 + rng.Uniform(400), rng.Uniform(1u << 30));
    const int64_t m = static_cast<int64_t>(q.size());
    const int64_t n = static_cast<int64_t>(t.size());
    const int64_t diagonal = rng.UniformInt(-m - band - 2, n + band + 2);
    const uint64_t before = aligner.cells_computed();
    const int score = aligner.BandedScore(q, t, diagonal, band);
    const uint64_t score_cells = aligner.cells_computed() - before;
    Result<LocalAlignment> a = aligner.BandedAlign(q, t, diagonal, band);
    if (!a.ok() || a->score != score ||
        aligner.cells_computed() - before != 2 * score_cells) {
      return 0.0;
    }
  }
  return 1.0;
}

int RunGate(const std::string& out_path) {
  const SimdLevel level = DetectCpuSimdLevel();
  std::printf("kernel gate: widest CPU tier = %s\n", SimdLevelName(level));

  const KernelRates rates = MeasureRates(level);
  const double striped_speedup = rates.vector_mcells / rates.scalar_mcells;
  const double banded_rate_ratio = rates.banded_mcells / rates.scalar_mcells;
  const double striped_agrees = StripedAgreement(level);
  const double banded_agrees = BandedAgreement();

  std::printf(
      "striped SW:  scalar %.0f Mcells/s, %s %.0f Mcells/s  (%.2fx)\n"
      "banded:      %.0f Mcells/s  (%.2fx scalar full SW)\n"
      "agreement:   striped %s, banded %s\n",
      rates.scalar_mcells, SimdLevelName(level), rates.vector_mcells,
      striped_speedup, rates.banded_mcells, banded_rate_ratio,
      striped_agrees == 1.0 ? "ok" : "MISMATCH",
      banded_agrees == 1.0 ? "ok" : "MISMATCH");

  bench::JsonMetrics doc("micro_align");
  doc.Add("striped_speedup", striped_speedup);
  doc.Add("striped_agrees", striped_agrees);
  doc.Add("banded_rate_ratio", banded_rate_ratio);
  doc.Add("banded_agrees", banded_agrees);
  doc.Add("scalar_mcells_per_s", rates.scalar_mcells);
  doc.Add("vector_mcells_per_s", rates.vector_mcells);
  doc.Add("banded_mcells_per_s", rates.banded_mcells);
  doc.Emit(out_path);
  return striped_agrees == 1.0 && banded_agrees == 1.0 ? 0 : 1;
}

}  // namespace
}  // namespace cafe

int main(int argc, char** argv) {
  bool gate = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      out_path = argv[i] + 16;
    }
  }
  if (gate) return cafe::RunGate(out_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
