// Quickstart: build a collection, index it, and run one partitioned query.
//
//   $ ./quickstart
//
// Walks through the minimal public-API flow: SequenceCollection ->
// IndexBuilder -> PartitionedSearch.

#include <cstdio>
#include <cstdlib>

#include "index/inverted_index.h"
#include "search/partitioned.h"

using cafe::IndexBuilder;
using cafe::IndexOptions;
using cafe::InvertedIndex;
using cafe::PartitionedSearch;
using cafe::Result;
using cafe::SearchOptions;
using cafe::SearchResult;
using cafe::SequenceCollection;

namespace {

void Die(const cafe::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main() {
  // 1. A tiny nucleotide database. Real applications would call
  //    SequenceCollection::FromFasta / ::Load instead.
  SequenceCollection collection;
  struct {
    const char* id;
    const char* seq;
  } records[] = {
      {"plasmid_a", "ACGTTGCAGGCATCAGGATTACAGGCATTGCAACGGTTACAGCATTGA"},
      {"plasmid_b", "TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA"},
      {"phage_x", "GGCATCAGGATTACAGGCATTGCAACGGTTACAGCATTGACCGTAGGC"},
      {"random_1", "ACACACACACACACACACACACACACACACACACACACACACACACAC"},
  };
  for (const auto& r : records) {
    Result<uint32_t> id = collection.Add(r.id, "", r.seq);
    if (!id.ok()) Die(id.status());
  }
  std::printf("collection: %u sequences, %llu bases\n",
              collection.NumSequences(),
              static_cast<unsigned long long>(collection.TotalBases()));

  // 2. Build the compressed inverted interval index.
  IndexOptions index_options;
  index_options.interval_length = 8;  // 8-base intervals, 4^8 vocabulary
  Result<InvertedIndex> index = IndexBuilder::Build(collection, index_options);
  if (!index.ok()) Die(index.status());
  std::printf("index: %llu terms, %llu postings, %.1f bits/posting\n",
              static_cast<unsigned long long>(index->stats().num_terms),
              static_cast<unsigned long long>(index->stats().total_postings),
              index->stats().bits_per_posting);

  // 3. Partitioned search: coarse rank via the index, then local
  //    alignment on the survivors.
  PartitionedSearch engine(&collection, &*index);
  SearchOptions options;
  options.max_results = 3;
  options.traceback = true;

  const char* query = "GGCATCAGGATTACAGGCATTGCAACGGTTAC";
  Result<SearchResult> result = engine.Search(query, options);
  if (!result.ok()) Die(result.status());

  std::printf("\nquery: %s\n", query);
  std::printf("hits: %zu (aligned %llu of %u sequences)\n\n",
              result->hits.size(),
              static_cast<unsigned long long>(
                  result->trace.candidates_aligned),
              collection.NumSequences());
  for (const cafe::SearchHit& hit : result->hits) {
    std::printf("  %-10s score=%-4d coarse=%.0f\n",
                collection.Name(hit.seq_id).c_str(), hit.score,
                hit.coarse_score);
    std::string target;
    if (collection.GetSequence(hit.seq_id, &target).ok() &&
        !hit.alignment.ops.empty()) {
      std::printf("%s\n", hit.alignment.Format(query, target).c_str());
    }
  }
  return 0;
}
