// Homology search scenario: a GenBank-like synthetic collection with
// planted homologues at known divergences; compare what the partitioned
// (indexed) engine and the exhaustive Smith-Waterman oracle retrieve.
//
//   $ ./homology_search [num_background_sequences]
//
// This is the workload the paper's introduction motivates: given a probe
// sequence, find the related entries in a large nucleotide database.

#include <cstdio>
#include <cstdlib>

#include "eval/metrics.h"
#include "search/exhaustive.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/timer.h"

using namespace cafe;  // example code favours brevity

int main(int argc, char** argv) {
  uint32_t background = argc > 1
                            ? static_cast<uint32_t>(std::atoi(argv[1]))
                            : 300;

  sim::CollectionOptions copt;
  copt.num_sequences = background;
  copt.seed = 42;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 5;
  wopt.query_length = 400;
  wopt.homologs_per_query = 4;
  wopt.min_homolog_divergence = 0.05;
  wopt.max_homolog_divergence = 0.25;
  wopt.seed = 43;

  std::printf("building collection (%u background sequences) ...\n",
              background);
  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  if (!wl.ok()) {
    std::fprintf(stderr, "error: %s\n", wl.status().ToString().c_str());
    return 1;
  }
  std::printf("collection: %u sequences, %llu bases\n",
              wl->collection.NumSequences(),
              static_cast<unsigned long long>(wl->collection.TotalBases()));

  IndexOptions iopt;
  iopt.interval_length = 8;
  WallTimer build_timer;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("index built in %.2fs (%llu postings)\n\n",
              build_timer.Seconds(),
              static_cast<unsigned long long>(
                  index->stats().total_postings));

  PartitionedSearch part(&wl->collection, &*index);
  ExhaustiveSearch exh(&wl->collection);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 50;

  double part_time = 0, exh_time = 0, recall_sum = 0, overlap_sum = 0;
  for (size_t qi = 0; qi < wl->queries.size(); ++qi) {
    const sim::PlantedQuery& q = wl->queries[qi];
    Result<SearchResult> rp = part.Search(q.sequence, options);
    Result<SearchResult> re = exh.Search(q.sequence, options);
    if (!rp.ok() || !re.ok()) {
      std::fprintf(stderr, "search failed\n");
      return 1;
    }
    part_time += rp->trace.total_micros * 1e-6;
    exh_time += re->trace.total_micros * 1e-6;
    double recall =
        eval::RecallAtK(rp->hits, q.true_positives, options.max_results);
    double overlap = eval::OverlapAtK(rp->hits, re->hits, 5);
    recall_sum += recall;
    overlap_sum += overlap;

    std::printf("query %zu: %zu hits, planted-homologue recall %.2f, "
                "oracle-overlap@5 %.2f\n",
                qi, rp->hits.size(), recall, overlap);
    for (size_t i = 0; i < rp->hits.size() && i < 4; ++i) {
      const SearchHit& h = rp->hits[i];
      std::printf("    #%zu %-12s score=%d\n", i + 1,
                  wl->collection.Name(h.seq_id).c_str(), h.score);
    }
  }

  size_t n = wl->queries.size();
  std::printf("\npartitioned: %.3fs total, exhaustive: %.3fs total "
              "(%.1fx speedup)\n",
              part_time, exh_time, exh_time / part_time);
  std::printf("mean planted recall %.2f, mean oracle overlap %.2f\n",
              recall_sum / n, overlap_sum / n);
  return 0;
}
