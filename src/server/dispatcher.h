// Request dispatcher: the bridge between connection threads and the
// search engine.
//
// Connection handlers block in Execute(); a small pool of dispatcher
// workers drains the shared queue, coalescing concurrently-arriving
// requests with compatible options into one SearchEngine::BatchSearch
// call — the engine's heavy-traffic shape — while each request keeps
// its own deadline, span recorder and trace.
//
// Admission control is a hard bound on queue depth: when the queue is
// full (or the dispatcher is stopping) Execute returns
// Status::Overloaded immediately instead of queueing unboundedly, so
// overload degrades into fast, explicit rejections. Requests whose
// deadline expires while still queued complete as truncated empty
// results without ever reaching the engine.
//
// Stop() is a graceful drain: new requests are rejected, every already
// admitted request still completes, then the workers exit. The
// destructor calls Stop().
//
// Accounting. The dispatcher is where a request's numbers reach
// /metrics: each completed request adds its own SearchResult::trace as
// the search.* counters and stage histograms, and its latency, from
// span-clock stamps (obs::SpanRecorder::NowNanos) taken at admission,
// dispatch and completion, as server.queue_wait_micros and
// server.request_micros. Its flight record carries the same trace and
// the same stamps, so /metrics and /flightz agree.

#ifndef CAFE_SERVER_DISPATCHER_H_
#define CAFE_SERVER_DISPATCHER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "search/engine.h"
#include "server/protocol.h"
#include "util/deadline.h"
#include "util/mutex.h"

namespace cafe::server {

struct DispatcherOptions {
  /// Dispatcher worker threads — concurrent BatchSearch calls.
  uint32_t workers = 2;
  /// Admission bound: requests queued (not yet dispatched) beyond this
  /// are rejected with kOverloaded.
  uint32_t max_queue = 256;
  /// At most this many compatible requests coalesce into one batch.
  uint32_t max_batch = 8;
  /// SearchOptions::threads for each query inside a batch. 1 (the
  /// default) keeps each query sequential — parallelism comes from
  /// batching and the worker pool, which composes safely with
  /// BatchSearch's own fan-out rules.
  uint32_t search_threads = 1;
  /// Server-side chaining defaults applied to every admitted request
  /// (the wire protocol carries no chain fields, so the operator's
  /// flags decide). Chaining only drops non-reportable candidates, so
  /// turning it on changes cost, not results — see search/chain.h.
  ChainMode chain_mode = ChainMode::kOff;
  uint32_t min_chain_score = 2;
  /// When non-null, the dispatcher records the server.* and search.*
  /// metrics here (catalogue in docs/OBSERVABILITY.md).
  obs::MetricsRegistry* metrics = nullptr;
  /// When non-null, every completed request — including queue-expired
  /// and failed ones — leaves one FlightRecord here: trace id, options
  /// fingerprint, queue wait, end-to-end time, and the per-request
  /// pruning funnel (the request's own SearchResult::trace, so
  /// batch-mates never blur each other's funnel; empty for a failed
  /// request, which has no result).
  obs::FlightRecorder* flight = nullptr;
  /// Fraction of admitted requests ([0,1]) that record a span timeline
  /// (obs::SpanSampler decides per trace id). 0 — the default — turns
  /// the gate off; a request whose trace id is pinned in the slow log
  /// is force-sampled regardless, so an operator staring at /slowz can
  /// replay the request and get its timeline.
  double span_sample_rate = 0.0;
  /// Where finished timelines go (the /tracez backing). Null disables
  /// span recording entirely, whatever the rate.
  obs::SpanStore* span_store = nullptr;
};

class Dispatcher {
 public:
  /// Starts the worker threads. `engine` must outlive the dispatcher.
  Dispatcher(SearchEngine* engine, const DispatcherOptions& options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Admits `request`, blocks until it completes, and returns its
  /// result. Thread-safe; called from connection threads. Fails fast
  /// with Status::Overloaded when the queue is full or the dispatcher
  /// is stopping. A result with `truncated` set means the request's
  /// deadline fired first.
  /// `sampled`, when non-null, reports whether a span timeline was
  /// recorded for this request (the wire response's sampled flag).
  Result<SearchResult> Execute(const SearchRequest& request,
                               bool* sampled = nullptr) CAFE_EXCLUDES(mu_);

  /// Rejects new work, drains everything already admitted, joins the
  /// workers. Idempotent.
  void Stop() CAFE_EXCLUDES(stop_mu_, mu_);

  /// Queued-but-not-yet-dispatched requests right now.
  size_t QueueDepth() const CAFE_EXCLUDES(mu_);

 private:
  // One admitted request. Ownership protocol, not a per-field guard:
  // the fields are written by the admitting thread before the Pending
  // enters queue_, then exclusively by the worker that dequeued it,
  // and only `done` — the publication flag — is ever touched under
  // mu_ by both sides. The waiter reads the rest only after observing
  // done under mu_ (the lock's release/acquire pair orders the
  // worker's plain writes before the waiter's reads).
  struct Pending {
    std::string query;
    SearchOptions options;  // deadline handled separately, see below
    Deadline deadline;
    std::string key;        // OptionsKey() of the originating request
    uint64_t trace_id = 0;  // wire trace id, 0 when the caller sent none
    // Span-clock stamps (SpanRecorder::NowNanos): queue wait is
    // dispatched - admitted, end-to-end is completed - admitted.
    uint64_t admitted_ns = 0;
    uint64_t dispatched_ns = 0;
    uint64_t completed_ns = 0;
    bool deadline_expired = false;  // budget spent before dispatch
    // Span timeline of a sampled request (null otherwise). The
    // recorder rides the same ownership protocol as the other fields:
    // the admitting thread opens request/queue.wait, the dequeuing
    // worker ends queue.wait, runs the engine and hands the finished
    // timeline to the span store before publishing `done`.
    std::unique_ptr<obs::SpanRecorder> spans;
    uint32_t root_span = 0;   // "request" (opened at admission)
    uint32_t queue_span = 0;  // "queue.wait" (ended at dispatch)
    uint32_t batch_span = 0;  // "batch.search" (live batch members)
    SearchResult result;
    Status status;
    bool done = false;
  };

  void WorkerLoop() CAFE_EXCLUDES(mu_);
  /// Runs one coalesced batch outside the lock and completes each
  /// request. `batch` is non-empty and shares one options key.
  void RunBatch(std::vector<std::shared_ptr<Pending>> batch)
      CAFE_EXCLUDES(mu_);
  /// Records `p`'s metrics and flight record (outside any lock), then
  /// publishes `done` under mu_ and wakes the waiter.
  void Complete(const std::shared_ptr<Pending>& p, Status status,
                SearchResult result) CAFE_EXCLUDES(mu_);
  /// Adds `p`'s latency and its trace to the registry, when one is
  /// attached. A trace with no strand pass (a failed or queue-expired
  /// request) adds nothing. Called exactly once per request, from
  /// Complete(), before `done` is published.
  void RecordMetrics(const Pending& p) CAFE_EXCLUDES(mu_);
  /// Leaves `p`'s FlightRecord with the recorder, when one is attached.
  /// Called exactly once per request, from Complete(), before `done`
  /// is published — so no lock is held and none is needed: the worker
  /// still exclusively owns *p.
  void RecordFlight(const Pending& p) CAFE_EXCLUDES(mu_);

  SearchEngine* const engine_;
  const DispatcherOptions options_;
  obs::SpanSampler sampler_;

  // Lock order: stop_mu_ before mu_ — never the reverse.
  mutable Mutex mu_ CAFE_ACQUIRED_AFTER(stop_mu_);
  CondVar work_cv_;  // workers wait for queue/stop
  CondVar done_cv_;  // Execute waits for completion
  std::deque<std::shared_ptr<Pending>> queue_ CAFE_GUARDED_BY(mu_);
  bool stopping_ CAFE_GUARDED_BY(mu_) = false;
  Mutex stop_mu_;  // serializes Stop() callers around the joins
  // Spawned by the constructor (pre-publication, analysis-exempt);
  // joined and cleared only under stop_mu_.
  std::vector<std::thread> workers_ CAFE_GUARDED_BY(stop_mu_);

  // Resolved once at construction; null when metrics are detached.
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  obs::Histogram* queue_wait_micros_ = nullptr;
  obs::Histogram* search_micros_ = nullptr;
  obs::Histogram* request_micros_ = nullptr;
  // search.<field>, in SearchTrace::kCounters / kTimings order.
  std::array<obs::Counter*, obs::SearchTrace::kCounters.size()>
      search_counters_{};
  std::array<obs::Histogram*, obs::SearchTrace::kTimings.size()>
      search_histograms_{};
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_DISPATCHER_H_
