// Batch evaluation harness: run an engine over a query workload,
// aggregate the per-query traces, and keep the rankings for
// effectiveness scoring.

#ifndef CAFE_EVAL_HARNESS_H_
#define CAFE_EVAL_HARNESS_H_

#include <string>
#include <vector>

#include "search/engine.h"

namespace cafe::eval {

struct BatchResult {
  std::string engine_name;
  /// One SearchResult per query, in input order.
  std::vector<SearchResult> results;
  /// Merge of the per-query traces (SearchResult::trace).
  obs::SearchTrace aggregate;
  double mean_query_seconds = 0.0;
  /// Wall-clock time of the whole batch. With options.threads > 1 this
  /// is what shrinks (queries overlap), while the per-query timings
  /// the aggregate sums stay roughly constant.
  double wall_seconds = 0.0;
};

/// Runs every query through the engine via SearchEngine::BatchSearch
/// (concurrent across queries when options.threads > 1 and the engine
/// supports it). Fails fast on the first engine error.
Result<BatchResult> RunBatch(SearchEngine* engine,
                             const std::vector<std::string>& queries,
                             const SearchOptions& options);

}  // namespace cafe::eval

#endif  // CAFE_EVAL_HARNESS_H_
