// Per-request hierarchical span timelines.
//
// A SpanRecorder is attached to one request (keyed by its wire
// trace_id) and collects a tree of named, thread-stamped wall-clock
// spans — dispatcher queue wait, engine phases, per partition fine
// workers — into a preallocated arena. Recording is
// lock-free: a slot is claimed with one relaxed fetch_add, and the
// claiming thread alone writes that slot, so concurrent fine workers
// never contend. When the arena is full further spans are counted in
// dropped() instead of recorded; the timeline stays valid, just
// truncated.
//
// A null recorder pointer means "sampling off" and every
// instrumentation site reduces to a single branch (benchmarked by
// bench_micro_obs --gate). The sampling decision itself lives in
// SpanSampler: a SplitMix64 hash of the trace id against the
// configured rate, so the same trace id samples identically on every
// hop, with a round-robin counter fallback for clients that do not
// mint trace ids.
//
// Spans whose begin and end happen on one thread use the RAII Span
// wrapper (or StartSpan/EndSpan with the implicit parent anchor). Span
// is also the engines' one stage timer: its pair of clock reads feeds
// a SearchTrace stage field on every query and, when the request is
// sampled, the recorded span — so the two never disagree. Spans that
// cross threads — queue.wait begins on the connection thread and ends
// on a dispatcher search thread; fine.worker lives on a pool thread —
// use AddSpan with an explicit parent id and the begin/end stamps
// taken where the work happened. Cross-thread visibility of slot
// contents is the caller's synchronization (the future of a task
// submitted to a ThreadPool, ThreadPool's join barrier); the recorder
// only guarantees unique slot ownership.
//
// Export is Chrome trace-event JSON ("X" complete events, one per
// span, microsecond timestamps relative to the recorder's creation),
// loadable directly in chrome://tracing and Perfetto. The serving
// layer keeps finished timelines in a bounded SpanStore for the
// /tracez HTTP endpoint; the CLI writes them to --trace-out=FILE.
//
// The span name catalogue (name, parent, recording file) is
// documented in docs/OBSERVABILITY.md and cross-checked against the
// code bidirectionally by tools/doccheck.py.

#ifndef CAFE_OBS_SPAN_H_
#define CAFE_OBS_SPAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace cafe::obs {

/// Small dense id for the calling thread (0, 1, 2, … in first-call
/// order), stable for the thread's lifetime. Used as the span `tid`
/// and as the `tid=` field on log lines, so the two can be joined.
uint32_t DenseThreadId();

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. Public so
/// tests can reproduce sampling decisions.
uint64_t SplitMix64Hash(uint64_t x);

/// One recorded span. `name` must point at a string literal (the
/// recorder stores the pointer, never a copy). Timestamps are
/// steady-clock nanoseconds from SpanRecorder::NowNanos(); end_ns is 0
/// while the span is still open.
struct SpanEvent {
  const char* name = nullptr;
  uint32_t id = 0;      ///< 1-based slot id; 0 is "no span".
  uint32_t parent = 0;  ///< Parent span id; 0 = root.
  uint32_t tid = 0;     ///< DenseThreadId() of the recording thread.
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

/// Arena of spans for one request. See the file comment for the
/// threading contract; all recording methods are safe to call
/// concurrently.
class SpanRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  explicit SpanRecorder(uint64_t trace_id,
                        size_t capacity = kDefaultCapacity);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Steady-clock nanoseconds (monotonic; comparable only within a
  /// process). The timebase for AddSpan callers.
  static uint64_t NowNanos();

  /// Opens a span under the current implicit anchor (the most recently
  /// started, not-yet-ended span on the Start/End path) and makes the
  /// new span the anchor. Returns its id, or 0 if the arena is full
  /// (the span is counted in dropped() and EndSpan(0) is a no-op).
  uint32_t StartSpan(const char* name);

  /// Opens a span under an explicit parent (0 = root) without touching
  /// the implicit anchor. For spans recorded off the Start/End path.
  uint32_t StartSpan(const char* name, uint32_t parent);

  /// Closes the span. If it is the current anchor, the anchor returns
  /// to its parent. EndSpan(0) is a no-op.
  void EndSpan(uint32_t id);

  /// Records an already-measured span in one call: explicit parent,
  /// thread id, and begin/end stamps from NowNanos(). The fine-phase
  /// workers use this so a worker span carries the pool thread's tid
  /// even though the timeline is assembled after the join.
  uint32_t AddSpan(const char* name, uint32_t parent, uint32_t tid,
                   uint64_t begin_ns, uint64_t end_ns);

  uint64_t trace_id() const { return trace_id_; }
  size_t capacity() const { return slots_.size(); }
  /// Spans that did not fit in the arena.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Spans recorded so far.
  size_t size() const;
  /// Id of the current implicit anchor (0 = root). The natural parent
  /// for AddSpan calls made from worker threads.
  uint32_t current() const {
    return current_.load(std::memory_order_relaxed);
  }

  /// Copy of the recorded spans, in recording order.
  std::vector<SpanEvent> Snapshot() const;

  /// Chrome trace-event JSON: {"trace_id":"…","traceEvents":[…]} with
  /// one "X" (complete) event per span, ts/dur in microseconds
  /// relative to the recorder's creation, pid 1, tid the dense thread
  /// id. Loads directly in chrome://tracing and Perfetto. Call after
  /// recording has quiesced (see the file comment).
  std::string ChromeTraceJson() const;

 private:
  friend class Span;

  /// StartSpan(name) / EndSpan(id) with the caller's clock reads, so a
  /// Span can hand the same stamps to its µs sink.
  uint32_t StartSpanAt(const char* name, uint64_t begin_ns);
  void EndSpanAt(uint32_t id, uint64_t end_ns);

  const uint64_t trace_id_;
  const uint64_t origin_ns_;
  std::vector<SpanEvent> slots_;
  std::atomic<uint32_t> next_{0};
  std::atomic<uint32_t> current_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// RAII span for single-thread sections, and the one stage timer.
/// One pair of clock reads closes the span in `recorder` (when the
/// request is sampled) and adds the elapsed microseconds to
/// `*sink_micros` (when non-null — a SearchTrace stage field). With
/// both null, constructor and destructor are each a single branch —
/// the detached cost bench_micro_obs gates:
///   obs::Span span(options.spans, "coarse.rank", &trace->coarse_micros);
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name,
       double* sink_micros = nullptr)
      : recorder_(recorder), sink_(sink_micros) {
    if (recorder != nullptr || sink_micros != nullptr) Open(name);
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span now; later calls (and the destructor) do nothing.
  /// For a sink that must be written before its owner is moved away —
  /// an engine's `search` span ends before `return result;`.
  void End() {
    if (recorder_ != nullptr || sink_ != nullptr) Close();
  }

  /// Id of the opened span (0 when detached or dropped) — the parent
  /// to hand to AddSpan for children recorded on other threads.
  uint32_t id() const { return id_; }

 private:
  void Open(const char* name);
  void Close();

  SpanRecorder* recorder_;
  double* sink_;
  uint32_t id_ = 0;
  uint64_t begin_ns_ = 0;
};

/// Sampling gate for the dispatcher: should this request get a
/// recorder? Deterministic in the trace id (SplitMix64 hash against
/// rate * 2^64), so retries and cross-service hops of the same id
/// sample identically; requests without a trace id (0) fall back to a
/// shared round-robin counter at the same rate. rate <= 0 never
/// samples, rate >= 1 always does. Thread-safe.
class SpanSampler {
 public:
  explicit SpanSampler(double rate);

  bool ShouldSample(uint64_t trace_id);
  double rate() const { return rate_; }

 private:
  const double rate_;
  const uint64_t threshold_;  ///< Sample when hash < threshold.
  const uint64_t period_;     ///< Counter fallback period (>= 1).
  std::atomic<uint64_t> counter_{0};
};

/// Bounded store of finished timelines, keyed by trace id — the
/// backing for /tracez. Put() renders the recorder to Chrome trace
/// JSON and evicts the oldest entry once `capacity` timelines are
/// held. Thread-safe.
class SpanStore {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  explicit SpanStore(size_t capacity = kDefaultCapacity);

  void Put(const SpanRecorder& recorder) CAFE_EXCLUDES(mu_);
  /// Copies the stored JSON for the trace id into *out; false if the
  /// id was never sampled or has been evicted.
  bool GetJson(uint64_t trace_id, std::string* out) const
      CAFE_EXCLUDES(mu_);
  /// {"stored":[{"trace_id":"…","spans":N}, …]} — newest first, the
  /// /tracez index page.
  std::string ListJson() const CAFE_EXCLUDES(mu_);
  size_t size() const CAFE_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    uint64_t trace_id = 0;
    uint64_t spans = 0;
    std::string json;
  };

  const size_t capacity_;
  mutable Mutex mu_;
  std::deque<Entry> entries_ CAFE_GUARDED_BY(mu_);
};

}  // namespace cafe::obs

#endif  // CAFE_OBS_SPAN_H_
