// E8 — Design-choice ablations.
//
// Two choices DESIGN.md calls out:
//  (a) Coarse ranking function: bag-of-intervals hit counting vs
//      diagonal/frame evidence. Diagonal ranking should need fewer fine
//      candidates for the same recall because collinear hits are what
//      local alignment rewards.
//  (b) Database-side interval placement: overlapping (stride 1) vs
//      strided/non-overlapping extraction. Strided indexes are several
//      times smaller but lose sensitivity.

#include "bench_common.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "search/partitioned.h"

using namespace cafe;

namespace {

double MeanRecall(const eval::BatchResult& batch,
                  const std::vector<sim::PlantedQuery>& queries) {
  double recall = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    recall += eval::RecallAtK(batch.results[q].hits,
                              queries[q].true_positives, 20);
  }
  return recall / static_cast<double>(queries.size());
}

}  // namespace

int main() {
  bench::PrintHeader(
      "E8: ablations — coarse ranking function and interval placement",
      "\"intervals ... in conjunction with local alignment on likely "
      "answers\": which coarse evidence and index density make answers "
      "\"likely\"");

  sim::CollectionOptions copt;
  copt.target_bases =
      static_cast<uint64_t>(bench::MegabasesFromEnv(2.0) * 1e6);
  copt.seed = bench::SeedFromEnv();
  sim::WorkloadOptions wopt;
  wopt.num_queries = bench::QueriesFromEnv(6);
  wopt.query_length = 300;
  wopt.homologs_per_query = 5;
  wopt.min_homolog_divergence = 0.10;
  wopt.max_homolog_divergence = 0.35;
  wopt.seed = bench::SeedFromEnv() + 5;
  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  if (!wl.ok()) return 1;
  bench::PrintCollectionLine(wl->collection);

  std::vector<std::string> queries;
  for (const auto& q : wl->queries) queries.push_back(q.sequence);

  // --- (a) coarse ranking mode ---
  IndexOptions iopt;
  iopt.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  if (!index.ok()) return 1;
  PartitionedSearch part(&wl->collection, &*index);

  std::printf("(a) coarse ranking: recall@20 vs fine candidates\n");
  eval::TablePrinter atable({"fine candidates", "hit-count recall",
                             "diagonal recall", "hit-count ms/q",
                             "diagonal ms/q"});
  for (uint32_t candidates : {5u, 10u, 20u, 50u, 100u}) {
    SearchOptions hit_options;
    hit_options.max_results = 20;
    hit_options.fine_candidates = candidates;
    hit_options.coarse_mode = CoarseRankMode::kHitCount;
    SearchOptions diag_options = hit_options;
    diag_options.coarse_mode = CoarseRankMode::kDiagonal;

    eval::BatchResult hb = bench::Unwrap(
        eval::RunBatch(&part, queries, hit_options), "hit-count batch");
    eval::BatchResult db = bench::Unwrap(
        eval::RunBatch(&part, queries, diag_options), "diagonal batch");
    atable.AddRow({std::to_string(candidates),
                   FormatDouble(MeanRecall(hb, wl->queries), 3),
                   FormatDouble(MeanRecall(db, wl->queries), 3),
                   FormatDouble(hb.mean_query_seconds * 1e3, 1),
                   FormatDouble(db.mean_query_seconds * 1e3, 1)});
  }
  atable.Print();

  // --- (b) interval placement (database-side stride) ---
  std::printf("\n(b) interval placement: stride vs index size and recall "
              "(50 candidates)\n");
  eval::TablePrinter btable({"stride", "postings", "index MB", "recall@20",
                             "ms/q"});
  for (uint32_t stride : {1u, 2u, 4u, 8u}) {
    IndexOptions sopt;
    sopt.interval_length = 8;
    sopt.stride = stride;
    Result<InvertedIndex> sindex = IndexBuilder::Build(wl->collection, sopt);
    if (!sindex.ok()) return 1;
    PartitionedSearch spart(&wl->collection, &*sindex);
    SearchOptions options;
    options.max_results = 20;
    options.fine_candidates = 50;
    eval::BatchResult batch = bench::Unwrap(
        eval::RunBatch(&spart, queries, options), "strided batch");
    btable.AddRow({std::to_string(stride),
                   WithCommas(sindex->stats().total_postings),
                   FormatDouble(sindex->SerializedBytes() / 1e6, 2),
                   FormatDouble(MeanRecall(batch, wl->queries), 3),
                   FormatDouble(batch.mean_query_seconds * 1e3, 1)});
  }
  btable.Print();

  // --- (c) interval length (coarse selectivity vs vocabulary) ---
  std::printf("\n(c) interval length: selectivity vs recall "
              "(50 candidates)\n");
  eval::TablePrinter ctable({"n", "postings decoded/q", "coarse ms/q",
                             "recall@20", "ms/q"});
  for (int n : {6, 8, 10, 12}) {
    IndexOptions nopt;
    nopt.interval_length = n;
    Result<InvertedIndex> nindex = IndexBuilder::Build(wl->collection, nopt);
    if (!nindex.ok()) return 1;
    PartitionedSearch npart(&wl->collection, &*nindex);
    SearchOptions options;
    options.max_results = 20;
    options.fine_candidates = 50;
    eval::BatchResult batch = bench::Unwrap(
        eval::RunBatch(&npart, queries, options), "length batch");
    ctable.AddRow(
        {std::to_string(n),
         WithCommas(batch.aggregate.postings_decoded / queries.size()),
         FormatDouble(batch.aggregate.coarse_micros /
                          static_cast<double>(queries.size()) * 1e-3,
                      1),
         FormatDouble(MeanRecall(batch, wl->queries), 3),
         FormatDouble(batch.mean_query_seconds * 1e3, 1)});
  }
  ctable.Print();

  std::printf(
      "\nshape check: (a) diagonal evidence reaches full recall with fewer "
      "fine\ncandidates than bag-of-intervals counting; (b) strided "
      "indexes shrink\nroughly linearly in stride while recall decays at "
      "the divergent end —\nthe overlap/size trade the paper's design "
      "discussion weighs; (c) longer\nintervals are more selective (fewer "
      "postings touched) but lose the most\ndivergent homologues — the "
      "n ~ 8 sweet spot the CAFE papers settled on.\n");
  return 0;
}
