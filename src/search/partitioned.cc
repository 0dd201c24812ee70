#include "search/partitioned.h"

#include <algorithm>
#include <cstddef>

#include "align/smith_waterman.h"
#include "obs/span.h"
#include "search/chain.h"
#include "util/thread_pool.h"

namespace cafe {
namespace {

// Per-worker fine-phase state: its own aligner (DP scratch is
// per-instance), its own top-k, and its own counters, merged
// sequentially after the loop so results are identical to the
// single-threaded path.
struct FineWorker {
  FineWorker(const ScoringScheme& scheme, uint32_t limit)
      : aligner(scheme), top(limit) {}

  Aligner aligner;
  TopHits top;
  std::string seq;
  uint64_t aligned = 0;
  // fine.worker span stamps: first/last candidate touched on this
  // worker and the pool thread that ran it. Recorded via AddSpan after
  // the join (a worker span must carry the pool thread's tid, but only
  // the coordinating thread may assemble the timeline).
  uint64_t span_begin_ns = 0;
  uint64_t span_end_ns = 0;
  uint32_t span_tid = 0;
  // Set when the deadline fired before this worker's share was done.
  bool truncated = false;
  // Lowest candidate index that failed, so the search fails on the
  // first error in candidate order at every thread count.
  size_t error_index = SIZE_MAX;
  Status error = Status::OK();
};

void AlignCandidate(const SequenceCollection& collection,
                    std::string_view query, const SearchOptions& options,
                    const CoarseCandidate& cand, size_t index,
                    FineWorker* w) {
  if (w->error_index != SIZE_MAX && index > w->error_index) return;
  // Deadline poll between candidates: one clock read (~ns) against an
  // alignment (~µs+), so the fine phase stops within one candidate of
  // the deadline instead of finishing the whole budget.
  if (options.deadline != nullptr &&
      (w->truncated || options.deadline->Expired())) {
    w->truncated = true;
    return;
  }
  Status s = collection.GetSequence(cand.doc, &w->seq);
  if (!s.ok()) {
    if (index < w->error_index) {
      w->error_index = index;
      w->error = s;
    }
    return;
  }
  int score =
      cand.has_diagonal
          ? w->aligner.BandedScore(query, w->seq, cand.diagonal,
                                   options.band)
          : w->aligner.ScoreOnly(query, w->seq);
  ++w->aligned;
  if (score < options.min_score) return;
  SearchHit hit;
  hit.seq_id = cand.doc;
  hit.score = score;
  hit.coarse_score = cand.score;
  if (cand.has_diagonal) hit.diagonal = cand.diagonal;
  w->top.Add(std::move(hit));
}

}  // namespace

Result<SearchResult> PartitionedSearch::Search(std::string_view query,
                                               const SearchOptions& options) {
  CAFE_RETURN_IF_ERROR(options.Validate());
  if (query.size() < static_cast<size_t>(index_->options().interval_length)) {
    return Status::InvalidArgument(
        "query shorter than the index interval length");
  }

  SearchResult result;
  obs::SearchTrace& trace = result.trace;
  obs::SpanRecorder* spans = options.spans;
  obs::Span search_span(spans, "search", &trace.total_micros);
  trace.queries = 1;

  // Deadline poll at entry: a request that spent its whole budget
  // queued (or on the forward strand) returns immediately.
  if (options.deadline != nullptr && options.deadline->Expired()) {
    result.truncated = true;
    search_span.End();
    return result;
  }

  // Coarse phase: rank by interval evidence, keep the fine-search budget.
  std::vector<CoarseCandidate> candidates =
      ranker_.Rank(query, options.coarse_mode, options.fine_candidates,
                   options.frame_width, spans, &trace);

  // Phase boundary: when the deadline fired during the coarse phase,
  // skip fine alignment entirely rather than starting work we cannot
  // finish. The per-candidate polls inside the fine loop handle a
  // deadline that fires mid-phase.
  if (options.deadline != nullptr && options.deadline->Expired()) {
    result.truncated = true;
    candidates.clear();
  }

  // Chaining middle stage: drop candidates whose anchors in their best
  // diagonal window (carried over from the coarse pass) hold no
  // collinear chain of min_chain_score seeds. A pure pass-through when
  // chaining is off or the candidates carry no anchors. Sequential and
  // deterministic, like the coarse phase.
  ChainOutcome chained = ChainCandidates(query, std::move(candidates),
                                         *index_, options, &trace);
  const std::vector<CoarseCandidate>& survivors = chained.kept;

  // Fine phase: local alignment on the candidates only. Each candidate
  // is independent, so with threads > 1 the candidates are spread over a
  // pool of workers, each with its own aligner; per-worker top-k sets
  // and counters are merged in worker order. Top-k selection under the
  // total order (score desc, seq_id asc) is a pure function of the hit
  // set, so the merged ranking is bit-identical to the sequential one.
  const uint32_t requested = options.threads == 0
                                 ? ThreadPool::HardwareThreads()
                                 : options.threads;
  const size_t workers =
      std::min<size_t>(std::max<uint32_t>(requested, 1), survivors.size());

  {
    // fine.align covers alignment plus merge; each participating worker
    // additionally gets one fine.worker child (first-to-last candidate
    // on that worker, stamped with the running thread). One worker runs
    // the same body on the calling thread, without a pool (--threads 1),
    // so the timeline shape is thread-count invariant (span_test asserts
    // this).
    obs::Span fine_span(spans, "fine.align", &trace.fine_micros);
    std::vector<FineWorker> states;
    states.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      states.emplace_back(options.scoring, options.max_results);
    }
    auto align = [&](size_t i, unsigned w) {
      FineWorker& state = states[w];
      if (spans != nullptr && state.span_begin_ns == 0) {
        state.span_begin_ns = obs::SpanRecorder::NowNanos();
        state.span_tid = obs::DenseThreadId();
      }
      AlignCandidate(*collection_, query, options, survivors[i], i, &state);
      if (spans != nullptr) {
        state.span_end_ns = obs::SpanRecorder::NowNanos();
      }
    };
    if (workers > 1) {
      ThreadPool pool(static_cast<unsigned>(workers));
      pool.ParallelFor(survivors.size(), align);
    } else {
      for (size_t i = 0; i < survivors.size(); ++i) align(i, 0);
    }
    const FineWorker* failed = nullptr;
    for (const FineWorker& w : states) {
      if (w.error_index != SIZE_MAX &&
          (failed == nullptr || w.error_index < failed->error_index)) {
        failed = &w;
      }
    }
    if (failed != nullptr) return failed->error;
    if (spans != nullptr) {
      // The workers are done, so the stamps are visible here and the
      // coordinating thread can assemble the worker spans.
      for (const FineWorker& w : states) {
        if (w.span_begin_ns == 0) continue;  // never ran a candidate
        spans->AddSpan("fine.worker", fine_span.id(), w.span_tid,
                       w.span_begin_ns, w.span_end_ns);
      }
    }
    obs::Span merge_span(spans, "fine.merge");
    TopHits top(options.max_results);
    for (FineWorker& w : states) {
      for (SearchHit& hit : w.top.Take()) top.Add(std::move(hit));
      trace.candidates_aligned += w.aligned;
      trace.cells_computed += w.aligner.cells_computed();
      result.truncated = result.truncated || w.truncated;
    }
    result.hits = top.Take();
  }

  // Post-processing on the reported hits (at most max_results of them)
  // stays sequential: it is cheap, and keeping it single-threaded keeps
  // the output trivially deterministic. The chain's traceback band
  // (>= options.band) widens the traceback window so the reported
  // alignment is not clipped to a band narrower than the anchors it
  // chained.
  obs::Span post_span(spans, "post.process", &trace.post_micros);
  CAFE_RETURN_IF_ERROR(ReportHits(*collection_, query, options,
                                  chained.traceback_band, &result));
  post_span.End();
  search_span.End();
  return result;
}

}  // namespace cafe
