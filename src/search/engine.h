// Common search-engine interface, options and results.
//
// Every engine answers the same question — "which sequences in the
// collection have a high-quality local alignment with this query?" — so
// the partitioned (indexed) engine and the exhaustive baselines are
// interchangeable behind SearchEngine, which is what the effectiveness
// and timing experiments exploit.

#ifndef CAFE_SEARCH_ENGINE_H_
#define CAFE_SEARCH_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "align/alignment.h"
#include "align/scoring.h"
#include "align/statistics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/status.h"

namespace cafe {

/// Which strand of the query a hit was found on.
enum class Strand : uint8_t {
  kForward,
  kReverse,  // the hit matches the reverse complement of the query
};

/// How the coarse phase ranks candidate sequences.
enum class CoarseRankMode {
  /// Bag-of-intervals: count matching intervals per sequence.
  kHitCount,
  /// Frame/diagonal evidence: count interval hits that agree on an
  /// alignment diagonal (requires a positional index); far more selective
  /// for gapped-but-collinear homology.
  kDiagonal,
};

/// Whether the chaining middle stage (search/chain.h) runs between the
/// coarse ranking and the fine alignment phase.
enum class ChainMode : uint8_t {
  /// No chaining: every coarse candidate is fine-aligned (the classic
  /// two-phase pipeline).
  kOff,
  /// Diagonal-filter + collinear chaining: only candidates whose seed
  /// matches form a collinear chain of at least min_chain_score seeds
  /// reach the fine phase. Needs diagonal ranking on a positional index,
  /// whose candidates carry their anchors; otherwise (hit-count ranking,
  /// or no positions) it passes every candidate through, like kOff.
  kFilter,
};

/// Parses "off" | "filter"; InvalidArgument otherwise.
[[nodiscard]] Result<ChainMode> ParseChainMode(const std::string& name);

const char* ChainModeName(ChainMode mode);

struct SearchOptions {
  /// Number of hits to report.
  uint32_t max_results = 20;

  /// Partitioned search only: how many coarse candidates receive fine
  /// (alignment) scoring. The accuracy/time dial of experiment E4.
  uint32_t fine_candidates = 100;

  /// Half-width of the banded fine alignment around the coarse diagonal.
  int band = 48;

  /// Width of a coarse diagonal frame (positions); hits whose diagonals
  /// fall in the same or adjacent frames are combined.
  uint32_t frame_width = 16;

  CoarseRankMode coarse_mode = CoarseRankMode::kDiagonal;

  /// Partitioned search only: run the chaining middle stage between the
  /// coarse and fine phases (see ChainMode).
  ChainMode chain_mode = ChainMode::kOff;

  /// Minimum collinear chain length (in seed anchors) a candidate needs
  /// to survive the chaining stage. Ignored when chain_mode is kOff.
  uint32_t min_chain_score = 2;

  /// Expected seed extraction pattern of the index ('1'/'0', see
  /// alphabet/spaced_seed.h). Empty accepts whatever the index was
  /// built with; non-empty makes partitioned search fail with
  /// InvalidArgument when the index's pattern differs — a guard for
  /// callers that baked assumptions about seed shape into their
  /// queries. The all-ones pattern matches a contiguous-interval index
  /// of the same length.
  std::string seed_pattern;

  /// Populate LocalAlignment (with traceback) for reported hits.
  bool traceback = false;

  /// Hits scoring below this are not reported.
  int min_score = 1;

  /// Partitioned search only: re-score the reported hits with full
  /// (unbanded) Smith-Waterman after banded candidate scoring, so
  /// reported scores are never clipped by the band. Costs one full DP
  /// per reported hit.
  bool rescore_full = false;

  /// When set, SearchWithStrands also evaluates the reverse complement
  /// of the query and merges hits from both strands.
  bool search_both_strands = false;

  /// When present, hits are annotated with bit scores and E-values
  /// (against the collection's total base count). Obtain parameters from
  /// align/statistics.h (UngappedLambda / CalibrateGumbel).
  std::optional<GumbelParams> statistics;

  /// Worker threads for the parallel execution layer: the fine phase of
  /// partitioned search and concurrent queries in BatchSearch. 1 runs
  /// the sequential reference path (no thread pool is created); 0 means
  /// one worker per hardware thread. Results are identical at every
  /// setting — parallelism only changes wall time.
  uint32_t threads = 1;

  /// When non-null, the engine records named wall-clock spans (coarse
  /// scan, chaining, per-partition fine workers, merge, post) into this
  /// recorder — the per-request timeline behind /tracez and
  /// `cafe_cli --trace-out`. Written from the calling thread and, for
  /// worker spans, from fine-phase pool threads (SpanRecorder is
  /// lock-free; see obs/span.h for the contract). The pointer must stay
  /// valid for the duration of the call. Null (the default — the
  /// unsampled case) costs one branch per guarded site, gated by
  /// bench_micro_obs.
  obs::SpanRecorder* spans = nullptr;

  /// When non-null, the engine polls this deadline at phase boundaries
  /// (and, in the partitioned fine phase, between candidates) and stops
  /// early: the call still succeeds, but the result carries whatever
  /// hits were complete when the deadline fired and
  /// SearchResult::truncated is set. The pointer must stay valid for
  /// the duration of the call. Engines without deadline support simply
  /// run to completion. Which hits survive a truncation is timing-
  /// dependent — determinism holds only for untruncated results.
  const Deadline* deadline = nullptr;

  ScoringScheme scoring;

  /// Checks every request-derived knob (including the scoring scheme)
  /// and returns InvalidArgument instead of aborting, so wire-facing
  /// entry points can reject bad requests gracefully. Every engine's
  /// Search() calls this first.
  [[nodiscard]] Status Validate() const;
};

struct SearchHit {
  uint32_t seq_id = 0;
  /// Fine (local alignment) score.
  int score = 0;
  /// Coarse-phase evidence (0 when the engine has no coarse phase).
  double coarse_score = 0.0;
  /// Strand of the query this hit matches (always kForward unless
  /// searched via SearchWithStrands with search_both_strands set). For
  /// reverse hits, alignment coordinates refer to the reverse complement
  /// of the query.
  Strand strand = Strand::kForward;
  /// Normalized score and expectation; populated when
  /// SearchOptions::statistics is set (otherwise 0 and -1).
  double bit_score = 0.0;
  double evalue = -1.0;
  /// Populated when SearchOptions::traceback is set.
  LocalAlignment alignment;
};

struct SearchResult {
  std::vector<SearchHit> hits;  // sorted by descending score
  /// This query's pruning funnel and stage timings, filled by every
  /// engine on every call (SearchWithStrands merges both strands).
  obs::SearchTrace trace;
  /// True when SearchOptions::deadline expired before the search
  /// finished: `hits` is a partial (possibly empty) answer.
  bool truncated = false;
};

class SearchEngine {
 public:
  virtual ~SearchEngine() = default;

  virtual std::string name() const = 0;

  /// Finds the best-aligning sequences for `query` (normalized IUPAC).
  virtual Result<SearchResult> Search(std::string_view query,
                                      const SearchOptions& options) = 0;

  /// True when concurrent Search() calls on this instance are safe —
  /// i.e. Search touches only per-call state and thread-safe const
  /// methods of the collection/index. Engines that keep per-engine
  /// mutable scratch must return false; BatchSearch then falls back to
  /// evaluating queries one at a time.
  virtual bool SupportsConcurrentSearch() const { return false; }

  /// Evaluates a batch of independent queries — the heavy-traffic
  /// serving shape. Results arrive in input order and each equals what
  /// SearchWithStrands(this, query, options) returns (both strands are
  /// searched when options.search_both_strands is set), trace included.
  /// With options.threads > 1, no options.spans and
  /// SupportsConcurrentSearch(), queries are evaluated concurrently,
  /// each internally sequential; otherwise the batch runs one query at
  /// a time, passing options.threads through so engines with an
  /// internal parallel phase still use it.
  /// Fails with the first (lowest-index) query error.
  Result<std::vector<SearchResult>> BatchSearch(
      const std::vector<std::string>& queries, const SearchOptions& options);
};

/// Evaluates the query through `engine`, and — when
/// options.search_both_strands is set — also its reverse complement,
/// merging both strands' hits into one ranking of options.max_results.
/// The result's trace is the merge of both passes' traces.
Result<SearchResult> SearchWithStrands(SearchEngine* engine,
                                       std::string_view query,
                                       const SearchOptions& options);

/// Annotates every hit with bit score and E-value under `params`,
/// using the classic Karlin-Altschul relations
///   bits = (lambda * S - ln K) / ln 2
///   E    = K * m * n * exp(-lambda * S).
void AnnotateStatistics(SearchResult* result, uint64_t query_length,
                        uint64_t database_bases, const GumbelParams& params);

/// Keeps the `limit` highest-scoring hits; ties broken by lower seq_id.
class TopHits {
 public:
  explicit TopHits(uint32_t limit) : limit_(limit) {}

  void Add(SearchHit hit);

  /// Lowest score currently retained (INT_MIN until full).
  int Floor() const;

  /// Extracts hits in descending score order.
  std::vector<SearchHit> Take();

  size_t size() const { return heap_.size(); }

 private:
  uint32_t limit_;
  std::vector<SearchHit> heap_;  // min-heap on (score, -seq_id)
};

}  // namespace cafe

#endif  // CAFE_SEARCH_ENGINE_H_
