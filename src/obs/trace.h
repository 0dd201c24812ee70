// Per-query search accounting: the pruning funnel and per-stage
// timings behind one query. Every engine fills SearchResult::trace on
// every Search() call — it is the one per-query record; the stage
// timings come from obs::Span (obs/span.h), the one stage timer, whose
// clock reads also time the span of a sampled request. It is also the
// one source of search metrics: the serving dispatcher adds each
// completed request's trace to /metrics as `search.<field>` (a counter
// per funnel field, a histogram per stage timing), so the field names
// below are the metric names too.
//
// The counter fields are *deterministic*: for a given engine, query,
// index and options they are identical at every SearchOptions::threads
// setting (per-worker sums are merged, and every merge order produces
// the same totals) — asserted by obs_test. Timings are wall-clock and
// vary run to run; CountersJson() exists so callers can compare the
// deterministic part byte-for-byte.

#ifndef CAFE_OBS_TRACE_H_
#define CAFE_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <string>

namespace cafe::obs {

struct SearchTrace {
  // --- The pruning funnel (deterministic counters) -------------------
  /// Search() calls merged into this trace (2 per query with
  /// search_both_strands, 1 otherwise).
  uint64_t queries = 0;
  /// Interval occurrences extracted from the query (stride 1).
  uint64_t intervals_extracted = 0;
  /// Distinct interval terms among them.
  uint64_t terms_distinct = 0;
  /// Query terms with no postings list — stopped at build time or never
  /// seen in the collection. The index-stopping savings show up here.
  uint64_t terms_unindexed = 0;
  /// Postings lists actually fetched and decoded.
  uint64_t postings_lists_touched = 0;
  /// Postings entries decoded across those lists.
  uint64_t postings_decoded = 0;
  /// Sequences with non-zero coarse evidence.
  uint64_t candidates_ranked = 0;
  /// Candidates surviving the coarse cut (<= fine_candidates).
  uint64_t candidates_kept = 0;
  /// Candidates the coarse cut discarded (ranked - kept).
  uint64_t candidates_discarded = 0;
  /// Coarse candidates entering the chaining stage (0 when chaining is
  /// off or inapplicable — e.g. the index lacks positions).
  uint64_t chain_candidates_in = 0;
  /// Seed anchors (query position, subject position pairs) gathered
  /// across all chained candidates.
  uint64_t chain_anchors = 0;
  /// Candidates whose best collinear chain met min_chain_score; only
  /// these reach the fine phase when chaining is on.
  uint64_t chain_candidates_kept = 0;
  /// Candidates the chaining stage filtered out (in - kept).
  uint64_t chain_candidates_dropped = 0;
  /// Sequences that received fine (DP) scoring.
  uint64_t candidates_aligned = 0;
  /// DP cells computed (banded + full, including the traceback).
  uint64_t cells_computed = 0;
  /// Hits reported to the caller.
  uint64_t hits_reported = 0;

  // --- Per-phase wall clock (microseconds; NOT deterministic) --------
  double coarse_micros = 0.0;
  /// Chaining stage (between coarse and fine; 0 when chaining is off).
  double chain_micros = 0.0;
  double fine_micros = 0.0;
  /// Post-processing: traceback and E-values of reported hits.
  double post_micros = 0.0;
  double total_micros = 0.0;

  /// One field of the record: its name (the JSON key, and the metric
  /// name after `search.`) and its member.
  template <typename T>
  struct Field {
    const char* name;
    T SearchTrace::*member;
  };
  /// Every field, listed once: the funnel counters in CountersJson
  /// order and the stage timings in ToJson order. Merge, the JSON
  /// renderers and the dispatcher's search.* metrics all walk these.
  static const std::array<Field<uint64_t>, 16> kCounters;
  static const std::array<Field<double>, 5> kTimings;

  /// Field-wise accumulation; merge order does not affect the result.
  void Merge(const SearchTrace& other);

  /// JSON object of the deterministic counters only, fixed field order —
  /// byte-identical across thread counts for the same work.
  std::string CountersJson() const;

  /// {"counters": …, "timings_us": {"coarse":…, "chain":…, "fine":…,
  ///  "post":…, "total":…}} — each timing keyed by its field name
  /// without the `_micros` suffix.
  std::string ToJson() const;

  /// Human-readable multi-line rendering (the CLI's --stats output).
  std::string ToText() const;
};

}  // namespace cafe::obs

#endif  // CAFE_OBS_TRACE_H_
