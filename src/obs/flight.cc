#include "obs/flight.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace cafe::obs {
namespace {

int64_t NowUnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Copies of the last `max` records of an oldest-first deque, newest
// first.
std::vector<FlightRecord> NewestFirst(const std::deque<FlightRecord>& log,
                                      size_t max) {
  const size_t n = std::min(max, log.size());
  return std::vector<FlightRecord>(log.rbegin(), log.rbegin() + n);
}

}  // namespace

std::string FlightRecord::ToJson() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"trace_id\":\"%016" PRIx64
                "\",\"completed_unix_micros\":%lld,\"queue_us\":%" PRIu64
                ",\"total_us\":%" PRIu64 ",\"hits\":%u,\"status\":%u"
                ",\"truncated\":%s,\"deadline_expired\":%s"
                ",\"sampled\":%s",
                trace_id, static_cast<long long>(completed_unix_micros),
                queue_micros, total_micros, hits,
                static_cast<unsigned>(status_code),
                truncated ? "true" : "false",
                deadline_expired ? "true" : "false",
                sampled ? "true" : "false");
  std::string out = buf;
  if (sampled) {
    // One copy-paste from /flightz or /slowz to the timeline.
    std::snprintf(buf, sizeof(buf),
                  ",\"tracez\":\"/tracez?trace_id=%016" PRIx64 "\"",
                  trace_id);
    out += buf;
  }
  out += ",\"trace\":";
  out += trace.ToJson();
  out += "}";
  return out;
}

FlightRecorder::FlightRecorder(const Options& options)
    : options_{std::max<size_t>(options.capacity, 1), options.slow_micros,
               std::max<size_t>(options.slow_capacity, 1)} {}

void FlightRecorder::Record(FlightRecord record) {
  record.completed_unix_micros = NowUnixMicros();
  const bool slow = record.total_micros >= options_.slow_micros;
  MutexLock lock(&mu_);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (slow) {
    slow_recorded_.fetch_add(1, std::memory_order_relaxed);
    slow_.push_back(record);
    if (slow_.size() > options_.slow_capacity) slow_.pop_front();
  }
  recent_.push_back(std::move(record));
  if (recent_.size() > options_.capacity) recent_.pop_front();
}

bool FlightRecorder::SlowPinned(uint64_t trace_id) const {
  if (trace_id == 0) return false;
  // Relaxed precheck: nothing has ever been pinned, so the common
  // (healthy-service) path never touches the mutex.
  if (slow_recorded_.load(std::memory_order_relaxed) == 0) return false;
  MutexLock lock(&mu_);
  for (const FlightRecord& record : slow_) {
    if (record.trace_id == trace_id) return true;
  }
  return false;
}

std::vector<FlightRecord> FlightRecorder::Recent(size_t max) const {
  MutexLock lock(&mu_);
  return NewestFirst(recent_, max);
}

std::vector<FlightRecord> FlightRecorder::Slow(size_t max) const {
  MutexLock lock(&mu_);
  return NewestFirst(slow_, max);
}

std::string FlightRecorder::RecentJson(size_t max) const {
  std::string out = "{\"records\":[";
  bool first = true;
  for (const FlightRecord& record : Recent(max)) {
    if (!first) out += ",";
    first = false;
    out += record.ToJson();
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::SlowJson(size_t max) const {
  std::string out = "{\"threshold_micros\":";
  out += std::to_string(options_.slow_micros);
  out += ",\"records\":[";
  bool first = true;
  for (const FlightRecord& record : Slow(max)) {
    if (!first) out += ",";
    first = false;
    out += record.ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace cafe::obs
