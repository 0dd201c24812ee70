// Microbenchmarks (google-benchmark) for the observability layer
// (src/obs/): the detached cost the hot paths pay when no registry or
// span recorder is attached (a null check), the stage timer, the attached
// counter/histogram/span record cost, and contended multi-thread
// increments — the numbers behind the "near-zero overhead when
// unattached" claim in docs/OBSERVABILITY.md.
//
// Besides the google-benchmark suite, `--gate` runs the span-overhead
// gate: it times the detached obs::Span site against the detached
// counter guard (the long-standing ~0.35 ns reference branch) in the
// same process and emits the bench::JsonMetrics document
// tools/benchgate.py compares against bench/baselines/micro_obs.json
// in CI. The gated number is the median over rounds of the two
// detached sites' ratio, each round timing both back to back — stable
// across machines and host load, unlike absolute nanoseconds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/timer.h"

namespace cafe {
namespace {

// The detached guard as the engines write it: one branch on a pointer
// that is null. This must optimize to ~nothing.
void BM_DetachedCounterGuard(benchmark::State& state) {
  obs::Counter* counter = nullptr;
  benchmark::DoNotOptimize(counter);
  uint64_t fallback = 0;
  for (auto _ : state) {
    if (counter != nullptr) counter->Add(1);
    benchmark::DoNotOptimize(++fallback);
  }
}
BENCHMARK(BM_DetachedCounterGuard);

void BM_AttachedCounterAdd(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Add(1);
  }
  benchmark::DoNotOptimize(counter->Value());
}
// Contention shape: striped slots keep concurrent adders off one cache
// line, so threaded throughput should scale.
BENCHMARK(BM_AttachedCounterAdd)->Threads(1)->Threads(4)->Threads(8);

void BM_AttachedHistogramRecord(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Histogram* histogram = registry.GetHistogram("bench.histogram");
  uint64_t v = 1;
  for (auto _ : state) {
    histogram->Record(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cheap LCG
  }
}
BENCHMARK(BM_AttachedHistogramRecord)->Threads(1)->Threads(4);

// obs::Span with a µs sink and no recorder: the stage timer every
// query pays on the unsampled path (two steady-clock reads and an add).
void BM_SinkOnlySpan(benchmark::State& state) {
  double micros = 0.0;
  for (auto _ : state) {
    obs::Span span(nullptr, "bench.span", &micros);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(micros);
}
BENCHMARK(BM_SinkOnlySpan);

// Detached obs::Span: the per-phase cost every unsampled request pays
// at each instrumentation site — constructor and destructor must each
// reduce to one branch on a null pointer.
void BM_DetachedSpan(benchmark::State& state) {
  obs::SpanRecorder* recorder = nullptr;
  benchmark::DoNotOptimize(recorder);
  for (auto _ : state) {
    obs::Span span(recorder, "bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DetachedSpan);

// Attached obs::Span: one arena slot claim (relaxed fetch_add), two
// steady-clock reads, and the anchor bookkeeping.
void BM_AttachedSpan(benchmark::State& state) {
  obs::SpanRecorder recorder(0, /*capacity=*/1u << 20);
  for (auto _ : state) {
    if (recorder.size() == recorder.capacity()) {
      // Re-arm without timing the reset: overflow would silently turn
      // the record into a drop and flatter the number.
      state.PauseTiming();
      recorder.~SpanRecorder();
      new (&recorder) obs::SpanRecorder(0, 1u << 20);
      state.ResumeTiming();
    }
    obs::Span span(&recorder, "bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AttachedSpan);

// --- Span-overhead gate ----------------------------------------------
//
// Hand-timed (no google-benchmark) so the emitted document is exactly
// the {"bench","metrics"} shape benchgate expects. Each round times the
// detached counter guard, then the detached span site, over enough
// reps to last milliseconds, and takes their ratio: both sides of a
// ratio see the same host state (frequency, a neighbour's load), which
// separate best-of-N runs of each side did not. The gated number is the
// median of the per-round ratios.

constexpr int kGateRounds = 21;
constexpr int kGateLoopReps = 1 << 22;  // 2-9 ms per loop at 0.4-2.2 ns/op
constexpr int kGateReps = 1 << 16;      // attached pairs (arena-bound)

/// ns/op for the detached counter guard — the reference single-branch
/// site (with the volatile sink, 1.7-2.2 ns/op on a 4-vCPU AVX2 VM).
double TimeDetachedCounterNs() {
  obs::Counter* volatile counter = nullptr;
  volatile uint64_t sink = 0;
  WallTimer timer;
  for (int i = 0; i < kGateLoopReps; ++i) {
    obs::Counter* c = counter;
    if (c != nullptr) c->Add(1);
    sink = sink + 1;
  }
  return timer.Seconds() * 1e9 / kGateLoopReps;
}

/// ns/op for a detached obs::Span site (ctor + dtor, null recorder).
/// The volatile load stops the compiler hoisting the null check out of
/// the loop, mirroring how the engines reload options.spans per call.
double TimeDetachedSpanNs() {
  obs::SpanRecorder* volatile recorder = nullptr;
  volatile uint64_t sink = 0;
  WallTimer timer;
  for (int i = 0; i < kGateLoopReps; ++i) {
    obs::Span span(recorder, "bench.span");
    sink = sink + span.id();
  }
  return timer.Seconds() * 1e9 / kGateLoopReps;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Best-of-7 ns/op for an attached Start/End pair (fresh arena per
/// run so no iteration ever lands in the dropped path).
double MeasureAttachedSpanNs() {
  double best = 1e9;
  for (int run = 0; run < 7; ++run) {
    obs::SpanRecorder rec(0, kGateReps + 1);
    WallTimer timer;
    for (int i = 0; i < kGateReps; ++i) {
      obs::Span span(&rec, "bench.span");
    }
    best = std::min(best, timer.Seconds() * 1e9 / kGateReps);
    if (rec.dropped() != 0) return 1e9;  // arena bug: poison the number
  }
  return best;
}

int RunGate(const std::string& out_path) {
  std::vector<double> counter_round, detached_round, ratio_round;
  for (int round = 0; round < kGateRounds; ++round) {
    const double c = TimeDetachedCounterNs();
    const double d = TimeDetachedSpanNs();
    counter_round.push_back(c);
    detached_round.push_back(d);
    // Clamp the denominator so a fully-folded counter loop cannot
    // inflate the ratio to infinity.
    ratio_round.push_back(d / std::max(c, 0.05));
  }
  const double counter_ns = Median(counter_round);
  const double detached_ns = Median(detached_round);
  const double ratio = Median(ratio_round);
  const double attached_ns = MeasureAttachedSpanNs();

  std::printf(
      "span gate: detached counter guard %.3f ns/op (median)\n"
      "           detached span site     %.3f ns/op (median)\n"
      "           per-round ratio        %.2fx (median of %d)\n"
      "           attached span pair     %.3f ns/op\n",
      counter_ns, detached_ns, ratio, kGateRounds, attached_ns);

  bench::JsonMetrics doc("micro_obs");
  doc.Add("detached_span_ratio", ratio);
  doc.Add("detached_counter_ns", counter_ns);
  doc.Add("detached_span_ns", detached_ns);
  doc.Add("attached_span_ns", attached_ns);
  doc.Emit(out_path);
  return 0;
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
