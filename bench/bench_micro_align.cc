// Microbenchmarks (google-benchmark) for the alignment kernels: cells/s
// of score-only Smith-Waterman (per SIMD dispatch tier), banded
// alignment, traceback alignment and X-drop extension — the constants
// that size experiments E3-E5.
//
// Besides the google-benchmark suite, `--gate` runs the SIMD speedup
// gate: it measures the striped Smith-Waterman against its scalar
// oracle in the same process and emits the bench::JsonMetrics document
// tools/benchgate.py compares against bench/baselines/micro_align.json
// in CI. Gate metrics are
// within-run speedup ratios plus hard agreement invariants — stable
// across machines, unlike absolute cell rates.

#include <benchmark/benchmark.h>

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

// --- SIMD speedup gate -------------------------------------------------
//
// Hand-timed (no google-benchmark) so the emitted document is exactly
// the {"bench","metrics"} shape benchgate expects. Best-of-N wall-clock
// per tier; the gated numbers are the scalar/vector ratios measured in
// the same process on the same inputs.

/// Best-of-5 ScoreOnly throughput in Mcells/s at `level`.
double MeasureScoreMcells(SimdLevel level) {
  const size_t qlen = 400, tlen = 1000;
  std::string q = RandomSeq(qlen, 1);
  std::string t = RandomSeq(tlen, 2);
  Aligner aligner;
  aligner.set_simd_level(level);
  const int reps = 50;
  volatile int sink = 0;
  sink = sink + aligner.ScoreOnly(q, t);  // warm caches and the profile
  double best = 0.0;
  for (int run = 0; run < 5; ++run) {
    WallTimer timer;
    for (int i = 0; i < reps; ++i) sink = sink + aligner.ScoreOnly(q, t);
    double mcells =
        static_cast<double>(reps) * qlen * tlen / 1e6 / timer.Seconds();
    if (mcells > best) best = mcells;
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

int RunGate(const std::string& out_path) {
  const SimdLevel level = DetectCpuSimdLevel();
  std::printf("SIMD gate: widest CPU tier = %s\n", SimdLevelName(level));

  const double scalar_mcells = MeasureScoreMcells(SimdLevel::kScalar);
  const double vector_mcells = MeasureScoreMcells(level);
  const double striped_speedup = vector_mcells / scalar_mcells;
  const double striped_agrees = StripedAgreement(level);

  std::printf(
      "striped SW:  scalar %.0f Mcells/s, %s %.0f Mcells/s  (%.2fx)\n"
      "agreement:   striped %s\n",
      scalar_mcells, SimdLevelName(level), vector_mcells, striped_speedup,
      striped_agrees == 1.0 ? "ok" : "MISMATCH");

  bench::JsonMetrics doc("micro_align");
  doc.Add("striped_speedup", striped_speedup);
  doc.Add("striped_agrees", striped_agrees);
  doc.Add("scalar_mcells_per_s", scalar_mcells);
  doc.Add("vector_mcells_per_s", vector_mcells);
  doc.Emit(out_path);
  return striped_agrees == 1.0 ? 0 : 1;
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
