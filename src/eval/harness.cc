#include "eval/harness.h"

#include "util/timer.h"

namespace cafe::eval {

Result<BatchResult> RunBatch(SearchEngine* engine,
                             const std::vector<std::string>& queries,
                             const SearchOptions& options) {
  BatchResult out;
  out.engine_name = engine->name();
  WallTimer wall;
  Result<std::vector<SearchResult>> results =
      engine->BatchSearch(queries, options);
  if (!results.ok()) return results.status();
  out.wall_seconds = wall.Seconds();
  out.results = std::move(*results);
  for (const SearchResult& r : out.results) {
    out.aggregate.Merge(r.trace);
  }
  if (!queries.empty()) {
    out.mean_query_seconds = out.aggregate.total_micros * 1e-6 /
                             static_cast<double>(queries.size());
  }
  return out;
}

}  // namespace cafe::eval
