#include "obs/span.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace cafe::obs {

uint32_t DenseThreadId() {
  static std::atomic<uint32_t> next{0};
  static thread_local uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint64_t SplitMix64Hash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

SpanRecorder::SpanRecorder(uint64_t trace_id, size_t capacity)
    : trace_id_(trace_id), origin_ns_(NowNanos()), slots_(capacity) {}

uint64_t SpanRecorder::NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t SpanRecorder::StartSpan(const char* name) {
  return StartSpanAt(name, NowNanos());
}

uint32_t SpanRecorder::StartSpanAt(const char* name, uint64_t begin_ns) {
  uint32_t id = AddSpan(name, current_.load(std::memory_order_relaxed),
                        DenseThreadId(), begin_ns, 0);
  if (id != 0) current_.store(id, std::memory_order_relaxed);
  return id;
}

uint32_t SpanRecorder::StartSpan(const char* name, uint32_t parent) {
  return AddSpan(name, parent, DenseThreadId(), NowNanos(), 0);
}

void SpanRecorder::EndSpan(uint32_t id) { EndSpanAt(id, NowNanos()); }

void SpanRecorder::EndSpanAt(uint32_t id, uint64_t end_ns) {
  if (id == 0) return;
  SpanEvent& event = slots_[id - 1];
  event.end_ns = end_ns;
  // If the ended span is the implicit anchor, the anchor returns to
  // its parent. Out-of-order ends (a still-open sibling) leave the
  // anchor alone rather than guessing.
  uint32_t expected = id;
  current_.compare_exchange_strong(expected, event.parent,
                                   std::memory_order_relaxed);
}

uint32_t SpanRecorder::AddSpan(const char* name, uint32_t parent,
                               uint32_t tid, uint64_t begin_ns,
                               uint64_t end_ns) {
  uint32_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  SpanEvent& event = slots_[slot];
  event.name = name;
  event.id = slot + 1;
  event.parent = parent;
  event.tid = tid;
  event.begin_ns = begin_ns;
  event.end_ns = end_ns;
  return slot + 1;
}

size_t SpanRecorder::size() const {
  uint32_t claimed = next_.load(std::memory_order_relaxed);
  return claimed < slots_.size() ? claimed : slots_.size();
}

std::vector<SpanEvent> SpanRecorder::Snapshot() const {
  size_t count = size();
  return std::vector<SpanEvent>(slots_.begin(),
                                slots_.begin() + static_cast<long>(count));
}

std::string SpanRecorder::ChromeTraceJson() const {
  char buf[192];
  std::string out;
  std::snprintf(buf, sizeof(buf), "{\"trace_id\":\"%016" PRIx64 "\"",
                trace_id_);
  out += buf;
  std::snprintf(buf, sizeof(buf), ",\"dropped\":%" PRIu64, dropped());
  out += buf;
  out += ",\"traceEvents\":[";
  size_t count = size();
  for (size_t i = 0; i < count; ++i) {
    const SpanEvent& event = slots_[i];
    // An unclosed span (crashed or still open at export) renders with
    // dur 0 rather than a negative duration.
    uint64_t end_ns =
        event.end_ns >= event.begin_ns ? event.end_ns : event.begin_ns;
    double ts_us =
        static_cast<double>(event.begin_ns - origin_ns_) / 1000.0;
    double dur_us = static_cast<double>(end_ns - event.begin_ns) / 1000.0;
    if (i != 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%u,\"parent\":%u}}",
                  event.name != nullptr ? event.name : "", ts_us, dur_us,
                  event.tid, event.id, event.parent);
    out += buf;
  }
  out += "]}";
  return out;
}

void Span::Open(const char* name) {
  begin_ns_ = SpanRecorder::NowNanos();
  if (recorder_ != nullptr) id_ = recorder_->StartSpanAt(name, begin_ns_);
}

void Span::Close() {
  const uint64_t end_ns = SpanRecorder::NowNanos();
  if (recorder_ != nullptr) recorder_->EndSpanAt(id_, end_ns);
  if (sink_ != nullptr) {
    *sink_ += static_cast<double>(end_ns - begin_ns_) / 1000.0;
  }
  recorder_ = nullptr;
  sink_ = nullptr;
}

SpanSampler::SpanSampler(double rate)
    : rate_(rate),
      threshold_(rate >= 1.0 ? UINT64_MAX
                 : rate <= 0.0
                     ? 0
                     : static_cast<uint64_t>(rate * 18446744073709551616.0)),
      period_(rate >= 1.0 || rate <= 0.0
                  ? 1
                  : static_cast<uint64_t>(1.0 / rate)) {}

bool SpanSampler::ShouldSample(uint64_t trace_id) {
  if (rate_ <= 0.0) return false;
  if (rate_ >= 1.0) return true;
  if (trace_id == 0) {
    // No id to hash: round-robin at the same effective rate.
    return counter_.fetch_add(1, std::memory_order_relaxed) % period_ == 0;
  }
  return SplitMix64Hash(trace_id) < threshold_;
}

SpanStore::SpanStore(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void SpanStore::Put(const SpanRecorder& recorder) {
  Entry entry;
  entry.trace_id = recorder.trace_id();
  entry.spans = recorder.size();
  entry.json = recorder.ChromeTraceJson();  // render outside the lock
  MutexLock lock(&mu_);
  entries_.push_back(std::move(entry));
  while (entries_.size() > capacity_) entries_.pop_front();
}

bool SpanStore::GetJson(uint64_t trace_id, std::string* out) const {
  MutexLock lock(&mu_);
  // Newest first, so a re-used trace id resolves to the latest run.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->trace_id == trace_id) {
      *out = it->json;
      return true;
    }
  }
  return false;
}

std::string SpanStore::ListJson() const {
  char buf[96];
  std::string out = "{\"stored\":[";
  MutexLock lock(&mu_);
  bool first = true;
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"trace_id\":\"%016" PRIx64 "\",\"spans\":%" PRIu64 "}",
                  it->trace_id, it->spans);
    out += buf;
  }
  out += "]}";
  return out;
}

size_t SpanStore::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

}  // namespace cafe::obs
