// Request dispatcher: the admission gate between connection threads
// and the search engine.
//
// Execute() admits a request and hands its search to a fixed pool of
// `workers` threads (one, when the engine does not support concurrent
// Search) — a ThreadPool (util/thread_pool.h), whose FIFO queue
// starts requests in admission order — then waits for it on the
// connection thread. Each engine call serves one request, with its own
// deadline, span recorder and trace. Searches stay on the pool's
// threads rather than on the connection threads: the allocator keeps
// freed search memory per thread, so what searches leave resident
// follows the number of workers, not the number of connections.
//
// Admission control is a hard bound on the number of waiting requests:
// when `max_queue` are already waiting (or the dispatcher is stopping)
// Execute returns Status::Overloaded immediately instead of queueing
// unboundedly, so overload degrades into fast, explicit rejections.
// A request whose deadline expires while it waits completes as a
// truncated empty result without ever reaching the engine.
//
// Stop() rejects new requests and returns once every admitted request
// has completed. The destructor calls Stop().
//
// Accounting. The dispatcher is where a request's numbers reach
// /metrics: each completed request adds its own SearchResult::trace as
// the search.* counters and stage histograms, and its latency, from
// span-clock stamps (obs::SpanRecorder::NowNanos) taken at admission,
// at the start of its search and at completion, as
// server.queue_wait_micros and server.request_micros. Its flight
// record carries the same trace and the same stamps, so /metrics and
// /flightz agree.

#ifndef CAFE_SERVER_DISPATCHER_H_
#define CAFE_SERVER_DISPATCHER_H_

#include <array>
#include <cstdint>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "search/engine.h"
#include "server/protocol.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace cafe::server {

struct DispatcherOptions {
  /// Search threads: engine calls at once. The engine's
  /// SupportsConcurrentSearch() caps it at 1 when it returns false.
  uint32_t workers = 2;
  /// Admission bound: requests waiting for their turn beyond this are
  /// rejected with kOverloaded.
  uint32_t max_queue = 256;
  /// SearchOptions::threads for each request. 1 (the default) keeps
  /// each query sequential, so parallelism comes from concurrent
  /// requests.
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
  /// and failed ones — leaves one FlightRecord here: trace id, queue
  /// wait, end-to-end time, and the request's pruning funnel (its own
  /// SearchResult::trace; empty for a failed request, which has no
  /// result).
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
  /// Starts the search threads. `engine` must outlive the dispatcher.
  Dispatcher(SearchEngine* engine, const DispatcherOptions& options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Admits `request`, blocks until its search has run on a search
  /// thread, and returns the result. Thread-safe; called from
  /// connection threads. Fails fast with Status::Overloaded when
  /// `max_queue` requests are waiting or the dispatcher is stopping.
  /// A result with `truncated` set means the request's deadline fired
  /// first. Metrics, flight record and span timeline are recorded
  /// before it returns.
  /// `sampled`, when non-null, reports whether a span timeline was
  /// recorded for this request (the wire response's sampled flag).
  Result<SearchResult> Execute(const SearchRequest& request,
                               bool* sampled = nullptr) CAFE_EXCLUDES(mu_);

  /// Rejects new work and waits until every admitted request has
  /// completed. Idempotent.
  void Stop() CAFE_EXCLUDES(mu_);

  /// Admitted requests still waiting for their turn right now.
  size_t QueueDepth() const CAFE_EXCLUDES(mu_);

 private:
  // One admitted request, on its Execute() caller's stack.
  struct Admitted {
    uint64_t trace_id = 0;  // wire trace id, 0 when the caller sent none
    // Span-clock stamps (SpanRecorder::NowNanos): queue wait is
    // started - admitted, end-to-end is completed - admitted.
    uint64_t admitted_ns = 0;
    uint64_t started_ns = 0;
    uint64_t completed_ns = 0;
    bool deadline_expired = false;  // budget spent before its turn
    bool sampled = false;           // a span timeline was recorded
    Status status;
    SearchResult result;
  };

  /// Adds the request's latency and its trace to the registry, when
  /// one is attached. A trace with no strand pass (a failed or
  /// queue-expired request) adds nothing.
  void RecordMetrics(const Admitted& a);
  /// Leaves the request's FlightRecord with the recorder, when one is
  /// attached.
  void RecordFlight(const Admitted& a);

  SearchEngine* const engine_;
  const DispatcherOptions options_;
  obs::SpanSampler sampler_;

  // Lock order: mu_ before the pool's own lock (Execute submits under
  // mu_, so the pool's queue holds requests in admission order).
  mutable Mutex mu_;
  CondVar idle_cv_;  // Stop() waits for active_ to reach 0
  uint32_t waiting_ CAFE_GUARDED_BY(mu_) = 0;  // admitted, not started
  uint32_t active_ CAFE_GUARDED_BY(mu_) = 0;   // admitted, not completed
  bool stopping_ CAFE_GUARDED_BY(mu_) = false;

  // Resolved once at construction; null when metrics are detached.
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;
  obs::Histogram* queue_wait_micros_ = nullptr;
  obs::Histogram* request_micros_ = nullptr;
  // search.<field>, in SearchTrace::kCounters / kTimings order.
  std::array<obs::Counter*, obs::SearchTrace::kCounters.size()>
      search_counters_{};
  std::array<obs::Histogram*, obs::SearchTrace::kTimings.size()>
      search_histograms_{};

  // Declared last, so it is joined before the members its tasks use go.
  ThreadPool pool_;
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_DISPATCHER_H_
