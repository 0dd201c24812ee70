// Process-wide observability: a registry of named counters and
// log-scale histograms, designed for the same execution model as the
// rest of the library (util/thread_pool.h): many reader/writer threads,
// deterministic merge on snapshot.
//
// Cost model. Counters are striped: each thread increments its own
// cache-line-padded atomic slot with a relaxed fetch_add, so concurrent
// writers never contend on one line (lock-free; no mutex on the hot
// path). Histograms record into power-of-two buckets with relaxed
// atomics. The registry's mutex guards only name -> metric registration
// and snapshotting; callers look a metric up once and keep the pointer.
// When no registry is attached anywhere, instrumentation reduces to one
// null-check per guarded site (measured by bench_micro_obs).
//
// Lifetime. Metric pointers returned by GetCounter/GetHistogram remain
// valid for the registry's lifetime; metrics are never unregistered.

#ifndef CAFE_OBS_METRICS_H_
#define CAFE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/mutex.h"

namespace cafe::obs {

/// Dense per-thread stripe id in [0, kCounterStripes); assigned on first
/// use per thread, reused for the thread's lifetime.
size_t ThreadStripe();

/// A monotonically increasing sum. Writes are lock-free and contention-
/// free across threads (striped); Value() merges the stripes.
class Counter {
 public:
  static constexpr size_t kStripes = 16;

  void Add(uint64_t delta) {
    stripes_[ThreadStripe() % kStripes].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over all stripes. Concurrent with writers: the result is some
  /// valid point-in-time-ish total (each stripe read atomically).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kStripes> stripes_;
};

/// A log-scale (power-of-two bucket) histogram of uint64 samples.
/// Bucket i counts samples whose bit width is i: bucket 0 holds the
/// value 0, bucket i >= 1 holds [2^(i-1), 2^i). Recording is lock-free
/// (relaxed atomics; min/max via CAS loops).
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t value);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  // 0 when count == 0
    uint64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }

    /// Approximate value at quantile q in [0, 1]: the upper edge of the
    /// first bucket whose cumulative count reaches q·count, clamped to
    /// the observed [min, max]. Log-scale buckets make this exact only
    /// to within a factor of two — good enough for the /statusz and
    /// stats-document summaries. Returns 0 when empty.
    uint64_t ApproxPercentile(double q) const;

    /// This snapshot minus `baseline` (an earlier snapshot of the same
    /// histogram): interval count/sum/buckets. Exact min/max are not
    /// recoverable from two cumulative snapshots, so the delta's
    /// min/max are the bucket edges spanning the interval's samples —
    /// within the same factor-of-two bound as ApproxPercentile, which
    /// stays meaningful on the result. The windowed-rates primitive
    /// behind MetricsRegistry::Delta.
    Snapshot DeltaFrom(const Snapshot& baseline) const;
  };
  Snapshot Snap() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// A point-in-time copy of every metric in a registry — the value type
/// behind windowed rates: snapshot now, snapshot later, Delta() the
/// two, and the result holds per-interval counts and histogram
/// percentiles instead of since-startup cumulatives.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram::Snapshot> histograms;
};

/// Name -> metric registry. Names are dotted paths
/// (`search.postings_decoded`); the full catalogue is documented in
/// docs/OBSERVABILITY.md and cross-checked by tools/doccheck.py.
class MetricsRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first
  /// use. The pointer stays valid for the registry's lifetime; look it
  /// up once, not per increment.
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// `name value` lines for counters, `name count=… mean=… min=… max=…`
  /// for histograms, sorted by name.
  std::string SnapshotText() const;

  /// {"counters": {name: value, …},
  ///  "histograms": {name: {"count":…, "sum":…, "min":…, "max":…,
  ///                        "mean":…, "p50":…, "p90":…, "p99":…,
  ///                        "buckets": {"<bit width>": n}}}}
  /// Percentiles are Histogram::Snapshot::ApproxPercentile (bucket
  /// edges). Keys are sorted (std::map), so equal metric states produce
  /// byte-identical documents.
  std::string SnapshotJson() const;

  /// Structured copy of every metric, for windowed diffing via Delta.
  MetricsSnapshot SnapshotData() const;

  /// Per-metric `current - baseline`: counter differences and
  /// Histogram::Snapshot::DeltaFrom for histograms. Metrics absent
  /// from `baseline` (registered mid-window) diff against zero. This
  /// is how cafe_serve's stats thread turns cumulative metrics into
  /// per-interval rates and interval percentiles.
  static MetricsSnapshot Delta(const MetricsSnapshot& current,
                               const MetricsSnapshot& baseline);

  /// Prometheus text exposition (version 0.0.4) of every metric.
  /// Dotted names map to `cafe_` + dots replaced by underscores;
  /// counters gain the conventional `_total` suffix; histograms export
  /// as native Prometheus histograms whose `le` edges are the
  /// log-scale bucket upper bounds (2^i - 1). The name catalogue is
  /// documented in docs/OBSERVABILITY.md and cross-checked by
  /// tools/doccheck.py; the format is validated by tools/promcheck.py.
  std::string SnapshotPrometheus() const;

 private:
  // Guards the name -> metric maps, never the metric updates (those
  // are lock-free; callers cache the returned pointers).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CAFE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      CAFE_GUARDED_BY(mu_);
};

/// Minimal JSON string escaping (quotes, backslash, control chars) for
/// the exporters here and the CLI's --stats=json output.
std::string JsonEscape(std::string_view s);

}  // namespace cafe::obs

#endif  // CAFE_OBS_METRICS_H_
