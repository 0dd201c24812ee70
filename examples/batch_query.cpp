// Batch querying with persistence: build a collection + index once, save
// both to disk, then stream a batch of queries against the loaded
// artifacts and print a per-query report — the shape of a production
// retrieval service built on the library. Queries are evaluated
// concurrently through SearchEngine::BatchSearch; results are identical
// at every thread count.
//
//   $ ./batch_query [num_queries] [threads]   (threads 0 = hardware)

#include <cstdio>
#include <cstdlib>

#include "eval/harness.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/env.h"
#include "util/stringutil.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace cafe;

int main(int argc, char** argv) {
  uint32_t num_queries =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 10;
  uint32_t threads =
      argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 0;

  const std::string col_path = TempDir() + "/cafe_batch_collection.bin";
  const std::string idx_path = TempDir() + "/cafe_batch_index.bin";

  // --- Build & persist phase (run once in a real deployment) ---
  {
    sim::CollectionOptions copt;
    copt.target_bases = 2'000'000;
    copt.seed = 99;
    Result<SequenceCollection> col =
        sim::CollectionGenerator(copt).Generate();
    if (!col.ok()) return 1;
    IndexOptions iopt;
    iopt.interval_length = 8;
    Result<InvertedIndex> index = IndexBuilder::Build(*col, iopt);
    if (!index.ok()) return 1;
    if (!col->Save(col_path).ok() || !index->Save(idx_path).ok()) {
      std::fprintf(stderr, "failed to persist artifacts\n");
      return 1;
    }
    std::printf("persisted %s (%s) and index (%s)\n", col_path.c_str(),
                HumanBytes(col->StorageBytes()).c_str(),
                HumanBytes(index->SerializedBytes()).c_str());
  }

  // --- Serving phase: load artifacts, answer queries ---
  WallTimer load_timer;
  Result<SequenceCollection> col = SequenceCollection::Load(col_path);
  Result<InvertedIndex> index = InvertedIndex::Load(idx_path);
  if (!col.ok() || !index.ok()) {
    std::fprintf(stderr, "failed to load artifacts\n");
    return 1;
  }
  std::printf("loaded collection + index in %.2fs\n\n",
              load_timer.Seconds());

  Result<std::vector<std::string>> queries =
      sim::SampleQueries(*col, num_queries, 300, 0.08, 123);
  if (!queries.ok()) return 1;

  PartitionedSearch engine(&*col, &*index);
  SearchOptions options;
  options.max_results = 5;
  options.threads = threads;
  std::printf("serving with %u worker thread(s)\n",
              threads == 0 ? ThreadPool::HardwareThreads() : threads);
  Result<eval::BatchResult> batch =
      eval::RunBatch(&engine, *queries, options);
  if (!batch.ok()) {
    std::fprintf(stderr, "error: %s\n", batch.status().ToString().c_str());
    return 1;
  }

  for (size_t i = 0; i < batch->results.size(); ++i) {
    const SearchResult& r = batch->results[i];
    std::printf("query %2zu: best=%-5d hits=%zu coarse=%.1fms fine=%.1fms\n",
                i, r.hits.empty() ? 0 : r.hits[0].score, r.hits.size(),
                r.trace.coarse_micros * 1e-3, r.trace.fine_micros * 1e-3);
  }
  std::printf("\n%zu queries in %.3fs wall (%.1f ms/query mean, "
              "%.1f queries/sec)\n",
              batch->results.size(), batch->wall_seconds,
              batch->mean_query_seconds * 1e3,
              batch->wall_seconds > 0
                  ? static_cast<double>(batch->results.size()) /
                        batch->wall_seconds
                  : 0.0);
  std::printf("postings decoded: %s, DP cells: %s\n",
              WithCommas(batch->aggregate.postings_decoded).c_str(),
              WithCommas(batch->aggregate.cells_computed).c_str());

  RemoveFile(col_path).IgnoreError();
  RemoveFile(idx_path).IgnoreError();
  return 0;
}
