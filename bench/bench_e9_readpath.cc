// E9 — Index read paths: mmap (zero-copy) vs memory (heap copy).
//
// The systems claim: decoding postings straight out of a read-only
// mapping skips reading the file into a buffer and copying the blob to
// the heap, so cold start drops while coarse-phase throughput holds,
// with steady-state heap independent of postings volume. This bench
// measures both storage modes of InvertedIndex::Load on the same index
// file:
//
//   cold start   open the index and answer the first query batch —
//                the serving-restart scenario cafe_serve cares about
//   steady state coarse-phase and end-to-end throughput once warm
//
// Output: a human table, plus a machine-readable JSON document with
// --benchmark_format=json (to stdout, or to --benchmark_out=FILE).
// tools/benchgate.py compares that JSON against bench/baselines/
// readpath.json in CI and fails on regression. Machine-portable gate
// metrics are *ratios between the two modes measured in the same run*
// (cold_start_speedup, coarse_throughput_ratio), not absolute times.

#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/harness.h"
#include "eval/table.h"
#include "index/index_reader.h"
#include "obs/trace.h"
#include "search/partitioned.h"
#include "util/flags.h"
#include "util/timer.h"

using namespace cafe;

namespace {

struct ModeResult {
  double open_ms = 0.0;        // best-of-N cold start: Open() to ready
  double first_batch_ms = 0.0;  // best-of-N Open() + first coarse batch
  double coarse_qps = 0.0;     // warm coarse-phase throughput
  double total_qps = 0.0;      // warm end-to-end throughput
  uint64_t heap_bytes = 0;     // steady-state heap (excl. mapping/blob)
  uint64_t postings_decoded = 0;  // per warm batch (deterministic)
};

ModeResult MeasureMode(IndexMode mode, const SequenceCollection& col,
                       const std::string& idx_path,
                       const std::vector<std::string>& queries,
                       const SearchOptions& options) {
  ModeResult r;
  constexpr int kColdRuns = 5;
  constexpr int kWarmRuns = 5;

  // Cold start, best of N: Open() until the index is ready to serve —
  // what a cafe_serve restart pays before it can accept traffic. Each
  // run reopens from scratch; the OS page cache stays warm across runs
  // (the file was just written), so what differs between modes is the
  // work the mode itself does: both verify the file CRC, but the memory
  // path first reads the file into a buffer and then copies the blob to
  // the heap, where the mmap path faults the pages in during the CRC
  // sweep and parses the directory out of the mapping. Separately,
  // open + the first coarse-only batch (fine_candidates = 0 skips
  // alignment, which is identical in every mode) adds whatever the
  // first queries pay on top, such as page faults after eviction.
  SearchOptions coarse_only = options;
  coarse_only.fine_candidates = 0;
  for (int run = 0; run < kColdRuns; ++run) {
    WallTimer timer;
    Result<IndexReader> reader = IndexReader::Open(idx_path, mode);
    bench::Unwrap(reader.status(), "index open");
    double open_ms = timer.Millis();
    PartitionedSearch engine(&col, reader->source());
    bench::Unwrap(eval::RunBatch(&engine, queries, coarse_only).status(),
                  "cold coarse batch");
    double first_batch_ms = timer.Millis();
    if (run == 0 || open_ms < r.open_ms) r.open_ms = open_ms;
    if (run == 0 || first_batch_ms < r.first_batch_ms) {
      r.first_batch_ms = first_batch_ms;
    }
  }

  // Steady state: one reader, one warmup pass, then timed passes with
  // the trace accumulating the coarse-phase share.
  Result<IndexReader> reader = IndexReader::Open(idx_path, mode);
  bench::Unwrap(reader.status(), "index open");
  PartitionedSearch engine(&col, reader->source());
  bench::Unwrap(eval::RunBatch(&engine, queries, options).status(),
                "warmup batch");
  obs::SearchTrace trace;
  WallTimer timer;
  for (int run = 0; run < kWarmRuns; ++run) {
    eval::BatchResult batch = bench::Unwrap(
        eval::RunBatch(&engine, queries, options), "warm batch");
    trace.Merge(batch.aggregate);
  }
  const double wall = timer.Seconds();
  const double total_queries =
      static_cast<double>(queries.size()) * kWarmRuns;
  r.total_qps = total_queries / wall;
  r.coarse_qps =
      total_queries / (static_cast<double>(trace.coarse_micros) * 1e-6);
  r.postings_decoded = trace.postings_decoded / kWarmRuns;
  r.heap_bytes = reader->source()->MemoryBytes();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const bool json = flags.GetString("benchmark_format", "console") == "json";
  const std::string out_path = flags.GetString("benchmark_out", "");
  bench::Unwrap(flags.Finish(), "flags");

  bench::PrintHeader(
      "E9: index read paths — mmap (zero-copy) vs memory (heap copy)",
      "the mmap read path skips the file read and the blob copy: faster "
      "cold start at no coarse-phase throughput loss");

  SequenceCollection col = bench::MakeCollection(
      bench::MegabasesFromEnv(4.0), bench::SeedFromEnv());
  bench::PrintCollectionLine(col);

  const uint32_t num_queries = bench::QueriesFromEnv(8);
  std::vector<std::string> queries = bench::Unwrap(
      sim::SampleQueries(col, num_queries, 300, 0.08, bench::SeedFromEnv()),
      "query sampling");

  IndexOptions iopt;
  iopt.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(col, iopt);
  bench::Unwrap(index.status(), "index build");
  std::string idx_path = TempDir() + "/cafe_bench_e9.idx";
  bench::Unwrap(index->Save(idx_path), "index save");
  std::printf("index: %s on disk, %u queries of length ~300\n\n",
              HumanBytes(index->SerializedBytes()).c_str(), num_queries);

  SearchOptions options;
  options.max_results = 20;
  options.fine_candidates = 100;
  options.threads = 1;  // sequential reference path: clean phase timings

  ModeResult memory =
      MeasureMode(IndexMode::kMemory, col, idx_path, queries, options);
  ModeResult mapped =
      MeasureMode(IndexMode::kMmap, col, idx_path, queries, options);
  bench::Unwrap(RemoveFile(idx_path), "cleanup");

  eval::TablePrinter table({"read path", "cold-start ms", "first batch ms",
                            "coarse q/s", "total q/s", "heap"});
  table.AddRow({"memory (heap copy)", FormatDouble(memory.open_ms, 1),
                FormatDouble(memory.first_batch_ms, 1),
                FormatDouble(memory.coarse_qps, 0),
                FormatDouble(memory.total_qps, 1),
                HumanBytes(memory.heap_bytes)});
  table.AddRow({"mmap (zero-copy)", FormatDouble(mapped.open_ms, 1),
                FormatDouble(mapped.first_batch_ms, 1),
                FormatDouble(mapped.coarse_qps, 0),
                FormatDouble(mapped.total_qps, 1),
                HumanBytes(mapped.heap_bytes)});
  table.Print();

  const double cold_speedup = memory.open_ms / mapped.open_ms;
  const double first_batch_speedup =
      memory.first_batch_ms / mapped.first_batch_ms;
  const double coarse_ratio = mapped.coarse_qps / memory.coarse_qps;
  std::printf(
      "\ncold start (open to ready): mmap %.2fx faster (open + first "
      "coarse batch: %.2fx);\ncoarse-phase throughput ratio mmap/memory: "
      "%.2f\n"
      "postings decoded per warm batch: memory %llu, mmap %llu%s\n",
      cold_speedup, first_batch_speedup, coarse_ratio,
      static_cast<unsigned long long>(memory.postings_decoded),
      static_cast<unsigned long long>(mapped.postings_decoded),
      memory.postings_decoded == mapped.postings_decoded
          ? " (identical — same bytes, different transport)"
          : " — MISMATCH, read paths disagree");

  if (json || !out_path.empty()) {
    bench::JsonMetrics doc("e9_readpath");
    doc.Add("cold_start_speedup", cold_speedup);
    doc.Add("first_batch_speedup", first_batch_speedup);
    doc.Add("coarse_throughput_ratio", coarse_ratio);
    doc.Add("memory_cold_ms", memory.open_ms);
    doc.Add("mmap_cold_ms", mapped.open_ms);
    doc.Add("memory_coarse_qps", memory.coarse_qps);
    doc.Add("mmap_coarse_qps", mapped.coarse_qps);
    doc.Add("mmap_heap_bytes", static_cast<double>(mapped.heap_bytes));
    doc.Add("postings_decoded_per_batch",
            static_cast<double>(mapped.postings_decoded));
    doc.Add("readpaths_agree",
            memory.postings_decoded == mapped.postings_decoded ? 1.0 : 0.0);
    doc.Emit(out_path);
  }

  std::printf(
      "\nshape check: the mmap column opens faster (one CRC sweep, no "
      "file read,\nno blob copy) and holds coarse throughput — with heap "
      "independent of\npostings volume.\n");
  return (cold_speedup >= 1.0 &&
          memory.postings_decoded == mapped.postings_decoded)
             ? 0
             : 1;
}
