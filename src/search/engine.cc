#include "search/engine.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "alphabet/nucleotide.h"
#include "alphabet/spaced_seed.h"
#include "util/thread_pool.h"

namespace cafe {
namespace {

// Min-heap comparator: the *worst* hit sits at the front. A hit is worse
// when its score is lower, or equal-scored with a higher seq_id (so ties
// prefer keeping lower ids, matching a stable full sort).
bool WorseFirst(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.seq_id < b.seq_id;
}

}  // namespace

Result<ChainMode> ParseChainMode(const std::string& name) {
  if (name == "off") return ChainMode::kOff;
  if (name == "filter") return ChainMode::kFilter;
  return Status::InvalidArgument("unknown chain mode '" + name +
                                 "' (expected off|filter)");
}

const char* ChainModeName(ChainMode mode) {
  switch (mode) {
    case ChainMode::kOff:
      return "off";
    case ChainMode::kFilter:
      return "filter";
  }
  return "unknown";
}

Status SearchOptions::Validate() const {
  CAFE_RETURN_IF_ERROR(scoring.Validate());
  if (max_results == 0) {
    return Status::InvalidArgument("max_results must be >= 1");
  }
  if (band < 0) {
    return Status::InvalidArgument("band must be >= 0");
  }
  if (frame_width == 0) {
    return Status::InvalidArgument("frame_width must be >= 1");
  }
  if (chain_mode != ChainMode::kOff && min_chain_score == 0) {
    return Status::InvalidArgument("min_chain_score must be >= 1");
  }
  if (!seed_pattern.empty()) {
    Result<SpacedSeed> seed = SpacedSeed::Parse(seed_pattern);
    if (!seed.ok()) return seed.status();
  }
  return Status::OK();
}

void TopHits::Add(SearchHit hit) {
  if (limit_ == 0) return;
  if (heap_.size() < limit_) {
    heap_.push_back(std::move(hit));
    std::push_heap(heap_.begin(), heap_.end(), WorseFirst);
    return;
  }
  const SearchHit& worst = heap_.front();
  if (hit.score < worst.score ||
      (hit.score == worst.score && hit.seq_id > worst.seq_id)) {
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), WorseFirst);
  heap_.back() = std::move(hit);
  std::push_heap(heap_.begin(), heap_.end(), WorseFirst);
}

int TopHits::Floor() const {
  if (heap_.size() < limit_ || heap_.empty()) return INT_MIN;
  return heap_.front().score;
}

Result<std::vector<SearchResult>> SearchEngine::BatchSearch(
    const std::vector<std::string>& queries, const SearchOptions& options) {
  std::vector<SearchResult> results(queries.size());
  const uint32_t requested = options.threads == 0
                                 ? ThreadPool::HardwareThreads()
                                 : options.threads;
  // A traced batch runs one query at a time: the recorder's implicit
  // parent is shared by every thread, so concurrent queries would nest
  // their spans under each other's.
  const bool concurrent = requested > 1 && queries.size() > 1 &&
                          options.spans == nullptr &&
                          SupportsConcurrentSearch();
  // One worker per query slot, each query internally sequential so the
  // pool is never entered recursively. Each query's trace rides in its
  // own result, so batch-mates never share accounting and the results
  // are the same objects the sequential loop would produce.
  SearchOptions shared = options;
  if (concurrent) shared.threads = 1;
  auto run = [&](size_t i) -> Status {
    Result<SearchResult> r = SearchWithStrands(this, queries[i], shared);
    if (!r.ok()) return r.status();
    results[i] = std::move(*r);
    return Status::OK();
  };
  if (!concurrent) {
    for (size_t i = 0; i < queries.size(); ++i) {
      CAFE_RETURN_IF_ERROR(run(i));
    }
    return results;
  }
  const size_t workers = std::min<size_t>(requested, queries.size());
  std::vector<Status> errors(queries.size(), Status::OK());
  ThreadPool pool(static_cast<unsigned>(workers));
  pool.ParallelFor(queries.size(), [&](size_t i, unsigned /*worker*/) {
    errors[i] = run(i);
  });
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  return results;
}

Result<SearchResult> SearchWithStrands(SearchEngine* engine,
                                       std::string_view query,
                                       const SearchOptions& options) {
  Result<SearchResult> forward = engine->Search(query, options);
  if (!forward.ok() || !options.search_both_strands) return forward;

  std::string rc = ReverseComplement(query);
  Result<SearchResult> reverse = engine->Search(rc, options);
  if (!reverse.ok()) return reverse.status();

  SearchResult merged;
  TopHits top(options.max_results);
  for (SearchHit& hit : forward->hits) {
    hit.strand = Strand::kForward;
    top.Add(std::move(hit));
  }
  for (SearchHit& hit : reverse->hits) {
    hit.strand = Strand::kReverse;
    top.Add(std::move(hit));
  }
  merged.hits = top.Take();
  merged.trace = forward->trace;
  merged.trace.Merge(reverse->trace);
  merged.truncated = forward->truncated || reverse->truncated;
  return merged;
}

void AnnotateStatistics(SearchResult* result, uint64_t query_length,
                        uint64_t database_bases,
                        const GumbelParams& params) {
  if (params.lambda <= 0 || params.k <= 0) return;
  const double ln2 = 0.6931471805599453;
  const double mn = static_cast<double>(query_length) *
                    static_cast<double>(database_bases);
  for (SearchHit& hit : result->hits) {
    hit.bit_score =
        (params.lambda * hit.score - std::log(params.k)) / ln2;
    hit.evalue = params.k * mn * std::exp(-params.lambda * hit.score);
  }
}

std::vector<SearchHit> TopHits::Take() {
  std::vector<SearchHit> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), [](const SearchHit& a,
                                       const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.seq_id < b.seq_id;
  });
  return out;
}

}  // namespace cafe
