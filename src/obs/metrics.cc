#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace cafe::obs {

size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  static thread_local size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Histogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Snapshot::ApproxPercentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the requested quantile, 1-based; q = 0 means the first
  // sample, q = 1 the last.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i).
      uint64_t upper = i == 0  ? 0
                       : i >= 64 ? UINT64_MAX
                                 : (uint64_t{1} << i) - 1;
      if (upper > max) upper = max;
      if (upper < min) upper = min;
      return upper;
    }
  }
  return max;
}

Histogram::Snapshot Histogram::Snapshot::DeltaFrom(
    const Snapshot& baseline) const {
  Snapshot delta;
  delta.count = count - std::min(baseline.count, count);
  delta.sum = sum - std::min(baseline.sum, sum);
  size_t lowest = kBuckets, highest = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t base = std::min(baseline.buckets[i], buckets[i]);
    delta.buckets[i] = buckets[i] - base;
    if (delta.buckets[i] > 0) {
      if (lowest == kBuckets) lowest = i;
      highest = i;
    }
  }
  if (delta.count > 0 && lowest < kBuckets) {
    // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i).
    delta.min = lowest == 0 ? 0 : uint64_t{1} << (lowest - 1);
    delta.max = highest == 0    ? 0
                : highest >= 64 ? UINT64_MAX
                                : (uint64_t{1} << highest) - 1;
    // The cumulative extremes still bound the interval's samples.
    if (min > delta.min) delta.min = min;
    if (max < delta.max) delta.max = max;
  }
  return delta;
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  uint64_t min = min_.load(std::memory_order_relaxed);
  snap.min = min == UINT64_MAX ? 0 : min;
  snap.max = max_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string MetricsRegistry::SnapshotText() const {
  MutexLock lock(&mu_);
  std::string out;
  char line[256];
  for (const auto& [name, counter] : counters_) {
    std::snprintf(line, sizeof(line), "%s %" PRIu64 "\n", name.c_str(),
                  counter->Value());
    out += line;
  }
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot s = histogram->Snap();
    std::snprintf(line, sizeof(line),
                  "%s count=%" PRIu64 " mean=%.1f min=%" PRIu64
                  " max=%" PRIu64 "\n",
                  name.c_str(), s.count, s.Mean(), s.min, s.max);
    out += line;
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"counters\":{";
  char buf[320];  // one histogram header line incl. percentiles
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, name.c_str(),
                  counter->Value());
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ",";
    first = false;
    Histogram::Snapshot s = histogram->Snap();
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"min\":%" PRIu64 ",\"max\":%" PRIu64
                  ",\"mean\":%.3f,\"p50\":%" PRIu64 ",\"p90\":%" PRIu64
                  ",\"p99\":%" PRIu64 ",\"buckets\":{",
                  name.c_str(), s.count, s.sum, s.min, s.max, s.Mean(),
                  s.ApproxPercentile(0.50), s.ApproxPercentile(0.90),
                  s.ApproxPercentile(0.99));
    out += buf;
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (s.buckets[i] == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      std::snprintf(buf, sizeof(buf), "\"%zu\":%" PRIu64, i, s.buckets[i]);
      out += buf;
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

MetricsSnapshot MetricsRegistry::SnapshotData() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snap();
  }
  return snap;
}

MetricsSnapshot MetricsRegistry::Delta(const MetricsSnapshot& current,
                                       const MetricsSnapshot& baseline) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : current.counters) {
    auto it = baseline.counters.find(name);
    const uint64_t base = it == baseline.counters.end() ? 0 : it->second;
    delta.counters[name] = value - std::min(base, value);
  }
  for (const auto& [name, snap] : current.histograms) {
    auto it = baseline.histograms.find(name);
    delta.histograms[name] = it == baseline.histograms.end()
                                 ? snap
                                 : snap.DeltaFrom(it->second);
  }
  return delta;
}

namespace {

// search.postings_decoded -> cafe_search_postings_decoded; characters a
// Prometheus metric name cannot hold become underscores.
std::string PrometheusName(const std::string& name) {
  std::string out = "cafe_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::SnapshotPrometheus() const {
  MutexLock lock(&mu_);
  std::string out;
  char line[256];
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusName(name) + "_total";
    std::snprintf(line, sizeof(line), "# TYPE %s counter\n%s %" PRIu64 "\n",
                  prom.c_str(), prom.c_str(), counter->Value());
    out += line;
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = PrometheusName(name);
    const Histogram::Snapshot s = histogram->Snap();
    std::snprintf(line, sizeof(line), "# TYPE %s histogram\n", prom.c_str());
    out += line;
    // Bucket i of the log-scale histogram holds values whose bit width
    // is i, so its inclusive upper bound is 2^i - 1 — a valid `le`
    // edge. Cumulative counts; empty buckets are elided (Prometheus
    // allows sparse edges), +Inf always present.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (s.buckets[i] == 0) continue;
      cumulative += s.buckets[i];
      const uint64_t edge =
          i == 0 ? 0 : i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1;
      std::snprintf(line, sizeof(line),
                    "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                    prom.c_str(), edge, cumulative);
      out += line;
    }
    std::snprintf(line, sizeof(line),
                  "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n%s_sum %" PRIu64
                  "\n%s_count %" PRIu64 "\n",
                  prom.c_str(), s.count, prom.c_str(), s.sum, prom.c_str(),
                  s.count);
    out += line;
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace cafe::obs
