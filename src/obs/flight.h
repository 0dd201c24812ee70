// Flight recorder: the last N completed requests, always on.
//
// A metrics registry answers "how is the service doing overall"; the
// flight recorder answers "why was *that* request slow". Every request
// the dispatcher completes leaves one FlightRecord — trace id, queue
// wait, end-to-end time, and the full pruning funnel
// (obs::SearchTrace) — in a fixed-size ring, and records whose
// end-to-end time reaches a configurable slow threshold are
// additionally pinned into a separate bounded slow log, so a burst of
// fast traffic cannot wash a slow request out of the ring before an
// operator looks at it. cafe_serve exposes both over HTTP as /flightz
// and /slowz.
//
// Cost model. Record runs once per completed request (a few hundred
// times a second at most) and takes one mutex to append the record to
// the ring, and to the slow log when it is slow. Readers (Recent/Slow)
// take the same mutex while copying; they are introspection endpoints,
// not hot paths. SlowPinned skips the mutex until something has been
// pinned.

#ifndef CAFE_OBS_FLIGHT_H_
#define CAFE_OBS_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/mutex.h"

namespace cafe::obs {

/// Everything worth keeping about one completed request.
struct FlightRecord {
  /// Wire trace id (0 when the peer sent none).
  uint64_t trace_id = 0;
  /// Admission -> start of its search.
  uint64_t queue_micros = 0;
  /// Admission -> completion (what the slow threshold is tested
  /// against).
  uint64_t total_micros = 0;
  /// The pruning funnel and per-phase timings of this one request.
  SearchTrace trace;
  /// Hits returned to the client.
  uint32_t hits = 0;
  /// Status::Code of the evaluation (0 = ok), as the wire byte.
  uint8_t status_code = 0;
  /// The request's deadline fired: hits are partial.
  bool truncated = false;
  /// The deadline fired while the request was still queued — it never
  /// reached the engine (truncated is also set).
  bool deadline_expired = false;
  /// A span timeline was recorded for this request (sampling gate or
  /// slow-pin force-on); ToJson() then links the /tracez URL.
  bool sampled = false;
  /// Wall clock at completion, microseconds since the Unix epoch.
  /// Stamped by FlightRecorder::Record.
  int64_t completed_unix_micros = 0;

  /// One JSON object, fixed field order; trace ids render as 16-digit
  /// hex so they match log lines and client output.
  std::string ToJson() const;
};

class FlightRecorder {
 public:
  struct Options {
    /// Ring capacity (completed requests retained). Clamped to >= 1.
    size_t capacity = 256;
    /// Records with total_micros >= this are pinned into the slow log;
    /// 0 pins every record (useful in tests and for "show me
    /// everything" debugging).
    uint64_t slow_micros = 250000;
    /// Slow-log capacity; the oldest slow record is dropped beyond
    /// this. Clamped to >= 1.
    size_t slow_capacity = 64;
  };

  explicit FlightRecorder(const Options& options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Publishes one completed request, stamping completed_unix_micros.
  /// Thread-safe.
  void Record(FlightRecord record) CAFE_EXCLUDES(mu_);

  /// Newest-first copies of up to `max` retained records.
  std::vector<FlightRecord> Recent(size_t max) const CAFE_EXCLUDES(mu_);

  /// Newest-first copies of up to `max` pinned slow records.
  std::vector<FlightRecord> Slow(size_t max) const CAFE_EXCLUDES(mu_);

  /// Requests recorded / pinned as slow since construction (monotonic,
  /// not bounded by the ring).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t slow_recorded() const {
    return slow_recorded_.load(std::memory_order_relaxed);
  }

  uint64_t slow_threshold_micros() const { return options_.slow_micros; }
  size_t capacity() const { return options_.capacity; }

  /// True when a record with this trace id is currently pinned in the
  /// slow log — the dispatcher's force-on signal: a repeat of a request
  /// an operator is already staring at in /slowz gets a span timeline
  /// regardless of the sampling rate. Constant-time false until
  /// something has been pinned, then a scan of the bounded slow log.
  bool SlowPinned(uint64_t trace_id) const CAFE_EXCLUDES(mu_);

  /// {"records":[...]} — newest first, at most `max` entries.
  std::string RecentJson(size_t max) const;
  /// {"threshold_micros":N,"records":[...]} — newest first.
  std::string SlowJson(size_t max) const;

 private:
  const Options options_;
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> slow_recorded_{0};

  mutable Mutex mu_;
  // Both oldest first, bounded by capacity and slow_capacity.
  std::deque<FlightRecord> recent_ CAFE_GUARDED_BY(mu_);
  std::deque<FlightRecord> slow_ CAFE_GUARDED_BY(mu_);
};

}  // namespace cafe::obs

#endif  // CAFE_OBS_FLIGHT_H_
