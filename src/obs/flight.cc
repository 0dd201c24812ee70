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
               std::max<size_t>(options.slow_capacity, 1)} {
  slots_.reserve(options_.capacity);
  for (size_t i = 0; i < options_.capacity; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

void FlightRecorder::LockSlot(Slot& slot) const {
  uint32_t expected = 0;
  while (!slot.lock.compare_exchange_weak(expected, 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    expected = 0;
  }
}

void FlightRecorder::UnlockSlot(Slot& slot) const {
  slot.lock.store(0, std::memory_order_release);
}

void FlightRecorder::Record(FlightRecord record) {
  record.completed_unix_micros = NowUnixMicros();
  const bool slow = record.total_micros >= options_.slow_micros;

  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = *slots_[seq % options_.capacity];
  LockSlot(slot);
  slot.seq = seq;
  slot.record = record;  // copy: the slow log may still need it below
  UnlockSlot(slot);

  if (slow) {
    slow_recorded_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(&slow_mu_);
    slow_.push_back(std::move(record));
    while (slow_.size() > options_.slow_capacity) slow_.pop_front();
  }
}

bool FlightRecorder::SlowPinned(uint64_t trace_id) const {
  if (trace_id == 0) return false;
  // Relaxed precheck: nothing has ever been pinned, so the common
  // (healthy-service) path never touches the mutex.
  if (slow_recorded_.load(std::memory_order_relaxed) == 0) return false;
  MutexLock lock(&slow_mu_);
  for (const FlightRecord& record : slow_) {
    if (record.trace_id == trace_id) return true;
  }
  return false;
}

std::vector<FlightRecord> FlightRecorder::Recent(size_t max) const {
  // Copy every written slot with its sequence number, then sort
  // newest-first. The ring is introspection-sized, so a full sweep is
  // cheaper than trying to chase concurrent writers index by index.
  std::vector<std::pair<uint64_t, FlightRecord>> copies;
  copies.reserve(slots_.size());
  for (const auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    LockSlot(slot);
    if (slot.seq != UINT64_MAX) {
      copies.emplace_back(slot.seq, slot.record);
    }
    UnlockSlot(slot);
  }
  std::sort(copies.begin(), copies.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (copies.size() > max) copies.resize(max);
  std::vector<FlightRecord> out;
  out.reserve(copies.size());
  for (auto& [seq, record] : copies) out.push_back(std::move(record));
  return out;
}

std::vector<FlightRecord> FlightRecorder::Slow(size_t max) const {
  MutexLock lock(&slow_mu_);
  std::vector<FlightRecord> out;
  const size_t n = std::min(max, slow_.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(slow_[slow_.size() - 1 - i]);  // newest first
  }
  return out;
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
