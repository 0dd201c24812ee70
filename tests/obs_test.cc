#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/trace.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/thread_pool.h"

namespace cafe {
namespace {

TEST(CounterTest, StartsAtZeroAndSums) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add(3);
  c.Increment();
  c.Add(0);
  EXPECT_EQ(c.Value(), 4u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  // Exercised under TSan in CI: striped relaxed increments must be both
  // race-free and lossless.
  obs::Counter c;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 10000;
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads * kPerThread,
                   [&](size_t /*i*/, unsigned /*w*/) { c.Add(1); });
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, BucketsByBitWidth) {
  obs::Histogram h;
  h.Record(0);     // bucket 0
  h.Record(1);     // bucket 1
  h.Record(2);     // bucket 2
  h.Record(3);     // bucket 2
  h.Record(1024);  // bucket 11
  obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 1030u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1024u);
  EXPECT_DOUBLE_EQ(s.Mean(), 206.0);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[11], 1u);
}

TEST(HistogramTest, EmptySnapshot) {
  obs::Histogram h;
  obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  obs::Histogram h;
  constexpr size_t kSamples = 40000;
  ThreadPool pool(8);
  pool.ParallelFor(kSamples, [&](size_t i, unsigned /*w*/) {
    h.Record(i % 7);
  });
  obs::Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, kSamples);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 6u);
}

TEST(RegistryTest, StablePointersPerName) {
  obs::MetricsRegistry r;
  obs::Counter* a = r.GetCounter("x.a");
  obs::Counter* b = r.GetCounter("x.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, r.GetCounter("x.a"));
  obs::Histogram* h = r.GetHistogram("x.h");
  EXPECT_EQ(h, r.GetHistogram("x.h"));
}

TEST(RegistryTest, SnapshotsAreDeterministicForEqualState) {
  // Same metric state -> byte-identical exports, regardless of the
  // registration order (std::map sorts by name).
  obs::MetricsRegistry r1, r2;
  r1.GetCounter("b")->Add(2);
  r1.GetCounter("a")->Add(1);
  r1.GetHistogram("h")->Record(5);
  r2.GetCounter("a")->Add(1);
  r2.GetHistogram("h")->Record(5);
  r2.GetCounter("b")->Add(2);
  EXPECT_EQ(r1.SnapshotText(), r2.SnapshotText());
  EXPECT_EQ(r1.SnapshotJson(), r2.SnapshotJson());
  EXPECT_NE(r1.SnapshotJson().find("\"a\":1"), std::string::npos);
  EXPECT_NE(r1.SnapshotJson().find("\"counters\""), std::string::npos);
  EXPECT_NE(r1.SnapshotJson().find("\"histograms\""), std::string::npos);
}

TEST(RegistryTest, ConcurrentRegistrationIsSafe) {
  obs::MetricsRegistry r;
  ThreadPool pool(8);
  pool.ParallelFor(1000, [&](size_t i, unsigned /*w*/) {
    r.GetCounter(i % 2 == 0 ? "even" : "odd")->Add(1);
  });
  EXPECT_EQ(r.GetCounter("even")->Value(), 500u);
  EXPECT_EQ(r.GetCounter("odd")->Value(), 500u);
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::JsonEscape(std::string("a\x01", 2)), "a\\u0001");
}

TEST(SearchTraceTest, MergeIsFieldwise) {
  obs::SearchTrace a, b;
  a.queries = 1;
  a.intervals_extracted = 10;
  a.cells_computed = 100;
  a.coarse_micros = 1.5;
  b.queries = 2;
  b.intervals_extracted = 5;
  b.hits_reported = 3;
  b.coarse_micros = 2.5;
  a.Merge(b);
  EXPECT_EQ(a.queries, 3u);
  EXPECT_EQ(a.intervals_extracted, 15u);
  EXPECT_EQ(a.cells_computed, 100u);
  EXPECT_EQ(a.hits_reported, 3u);
  EXPECT_DOUBLE_EQ(a.coarse_micros, 4.0);
}

TEST(SearchTraceTest, CountersJsonExcludesTimings) {
  obs::SearchTrace t;
  t.queries = 1;
  t.total_micros = 123456.0;  // must not appear in the counters document
  std::string json = t.CountersJson();
  EXPECT_NE(json.find("\"queries\":1"), std::string::npos);
  EXPECT_EQ(json.find("micros"), std::string::npos);
  EXPECT_EQ(json.find("123456"), std::string::npos);
  EXPECT_NE(t.ToJson().find("\"timings_us\""), std::string::npos);
}

// The renderers walk the field table; a golden document for a trace
// whose fields all differ pins their order, names and number format.
TEST(SearchTraceTest, JsonRenderingIsGolden) {
  obs::SearchTrace t;
  t.queries = 1;
  t.intervals_extracted = 2;
  t.terms_distinct = 3;
  t.terms_unindexed = 4;
  t.postings_lists_touched = 5;
  t.postings_decoded = 6;
  t.candidates_ranked = 7;
  t.candidates_kept = 8;
  t.candidates_discarded = 9;
  t.chain_candidates_in = 10;
  t.chain_anchors = 11;
  t.chain_candidates_kept = 12;
  t.chain_candidates_dropped = 13;
  t.candidates_aligned = 14;
  t.cells_computed = 15;
  t.hits_reported = 18446744073709551615u;
  t.coarse_micros = 1.5;
  t.chain_micros = 22.4;
  t.fine_micros = 333.3;
  t.post_micros = 4444.44;
  t.total_micros = 55555.54;
  const std::string counters =
      "{\"queries\":1,\"intervals_extracted\":2,\"terms_distinct\":3,"
      "\"terms_unindexed\":4,\"postings_lists_touched\":5,"
      "\"postings_decoded\":6,\"candidates_ranked\":7,"
      "\"candidates_kept\":8,\"candidates_discarded\":9,"
      "\"chain_candidates_in\":10,\"chain_anchors\":11,"
      "\"chain_candidates_kept\":12,\"chain_candidates_dropped\":13,"
      "\"candidates_aligned\":14,\"cells_computed\":15,"
      "\"hits_reported\":18446744073709551615}";
  EXPECT_EQ(t.CountersJson(), counters);
  EXPECT_EQ(t.ToJson(),
            "{\"counters\":" + counters +
                ",\"timings_us\":{\"coarse\":1.5,\"chain\":22.4,"
                "\"fine\":333.3,\"post\":4444.4,\"total\":55555.5}}");
}

// ---------------------------------------------------------------------
// Determinism: the SearchTrace counters must be byte-identical at every
// thread count — the per-worker sums commute, and each query's trace
// rides in its own SearchResult.

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::vector<sim::PlantedQuery> queries;
};

Fixture MakeFixture() {
  sim::CollectionOptions copt;
  copt.num_sequences = 60;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 99;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 4;
  wopt.query_length = 200;
  wopt.homologs_per_query = 3;
  wopt.min_homolog_divergence = 0.03;
  wopt.max_homolog_divergence = 0.12;
  wopt.seed = 7;

  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();

  IndexOptions iopt;
  iopt.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  EXPECT_TRUE(index.ok()) << index.status().ToString();

  Fixture f;
  f.collection = std::move(wl->collection);
  f.index = std::move(*index);
  f.queries = std::move(wl->queries);
  return f;
}

TEST(SearchTraceTest, CountersIdenticalAcrossThreadCounts) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);

  std::vector<std::string> queries;
  for (const sim::PlantedQuery& q : f.queries) queries.push_back(q.sequence);

  std::vector<std::string> reference;  // per-query CountersJson at 1 thread
  for (uint32_t threads : {1u, 4u}) {
    SearchOptions options;
    options.fine_candidates = 20;
    options.threads = threads;
    Result<std::vector<SearchResult>> batch =
        engine.BatchSearch(queries, options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), queries.size());
    std::vector<std::string> jsons;
    for (const SearchResult& r : *batch) {
      EXPECT_EQ(r.trace.queries, 1u);
      jsons.push_back(r.trace.CountersJson());
    }
    if (reference.empty()) {
      reference = std::move(jsons);
    } else {
      EXPECT_EQ(jsons, reference) << "trace counters depend on --threads";
    }
  }
}

TEST(SearchTraceTest, ResultTraceCarriesTheFunnel) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.fine_candidates = 20;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::SearchTrace& t = r->trace;
  EXPECT_EQ(t.queries, 1u);
  EXPECT_GT(t.intervals_extracted, 0u);
  EXPECT_GE(t.intervals_extracted, t.terms_distinct);
  EXPECT_EQ(t.terms_distinct, t.terms_unindexed + t.postings_lists_touched);
  EXPECT_GT(t.postings_decoded, 0u);
  EXPECT_EQ(t.candidates_kept, t.candidates_ranked - t.candidates_discarded);
  EXPECT_LE(t.candidates_kept, options.fine_candidates);
  EXPECT_EQ(t.chain_candidates_in, 0u);  // chaining is off
  EXPECT_EQ(t.candidates_aligned, t.candidates_kept);
  EXPECT_GT(t.cells_computed, 0u);
  EXPECT_EQ(t.hits_reported, r->hits.size());
}

TEST(HistogramTest, ApproxPercentileTracksDistribution) {
  obs::Histogram h;
  // 100 samples of 10 and 100 samples of 1000: the median sits in the
  // low cluster, the upper tail in the high cluster.
  for (int i = 0; i < 100; ++i) h.Record(10);
  for (int i = 0; i < 100; ++i) h.Record(1000);
  obs::Histogram::Snapshot snap = h.Snap();

  uint64_t p25 = snap.ApproxPercentile(0.25);
  uint64_t p99 = snap.ApproxPercentile(0.99);
  // Log-scale buckets are exact only to a factor of two, and the
  // estimate clamps to the observed range.
  EXPECT_GE(p25, 10u);
  EXPECT_LT(p25, 20u);
  EXPECT_GT(p99, 500u);
  EXPECT_LE(p99, 1000u);
  // q=0 lands in the low bucket (upper edge 15, floored at min=10);
  // q=1 is clamped to the observed max.
  uint64_t p0 = snap.ApproxPercentile(0.0);
  EXPECT_GE(p0, 10u);
  EXPECT_LE(p0, 15u);
  EXPECT_EQ(snap.ApproxPercentile(1.0), 1000u);
}

TEST(HistogramTest, ApproxPercentileEdgeCases) {
  obs::Histogram empty;
  EXPECT_EQ(empty.Snap().ApproxPercentile(0.5), 0u);

  obs::Histogram zeros;
  zeros.Record(0);
  zeros.Record(0);
  EXPECT_EQ(zeros.Snap().ApproxPercentile(0.99), 0u);

  obs::Histogram one;
  one.Record(7);
  // A single sample IS every percentile: the estimate clamps to the
  // observed [min, max] range, which has collapsed to a point.
  EXPECT_EQ(one.Snap().ApproxPercentile(0.0), 7u);
  EXPECT_EQ(one.Snap().ApproxPercentile(0.5), 7u);
  EXPECT_EQ(one.Snap().ApproxPercentile(1.0), 7u);

  // Every sample in one bucket ([64, 127] for these values): any
  // quantile must land inside the bucket, clamped to the observed
  // min/max rather than the bucket edges.
  obs::Histogram packed;
  packed.Record(100);
  packed.Record(110);
  packed.Record(120);
  obs::Histogram::Snapshot snap = packed.Snap();
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    uint64_t v = snap.ApproxPercentile(q);
    EXPECT_GE(v, 100u) << "q=" << q;
    EXPECT_LE(v, 120u) << "q=" << q;
  }
  EXPECT_EQ(snap.ApproxPercentile(1.0), 120u);
}

// --- Windowed snapshots (DeltaFrom / MetricsRegistry::Delta) --------

TEST(HistogramTest, DeltaFromIsolatesTheWindow) {
  obs::Histogram h;
  h.Record(5);
  h.Record(1000);
  obs::Histogram::Snapshot before = h.Snap();
  h.Record(100);
  h.Record(100);
  h.Record(200);
  obs::Histogram::Snapshot delta = h.Snap().DeltaFrom(before);

  EXPECT_EQ(delta.count, 3u);
  EXPECT_EQ(delta.sum, 400u);
  // The interval's samples live in buckets 7 ([64,127]) and 8
  // ([128,255]); min/max are those bucket edges.
  EXPECT_EQ(delta.min, 64u);
  EXPECT_EQ(delta.max, 255u);
  // Interval percentiles stay meaningful: the p50 of {100,100,200}
  // lands in the [64,127] bucket.
  uint64_t p50 = delta.ApproxPercentile(0.50);
  EXPECT_GE(p50, 64u);
  EXPECT_LE(p50, 127u);

  // A no-op window deltas to empty.
  obs::Histogram::Snapshot now = h.Snap();
  EXPECT_EQ(now.DeltaFrom(now).count, 0u);
}

TEST(RegistryTest, DeltaComputesIntervalRates) {
  obs::MetricsRegistry r;
  r.GetCounter("c")->Add(5);
  r.GetHistogram("h")->Record(10);
  obs::MetricsSnapshot before = r.SnapshotData();

  r.GetCounter("c")->Add(3);
  r.GetHistogram("h")->Record(20);
  r.GetCounter("fresh")->Add(2);  // registered mid-window
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Delta(r.SnapshotData(), before);

  EXPECT_EQ(delta.counters.at("c"), 3u);
  EXPECT_EQ(delta.counters.at("fresh"), 2u);  // diffs against zero
  EXPECT_EQ(delta.histograms.at("h").count, 1u);
  EXPECT_EQ(delta.histograms.at("h").sum, 20u);
}

TEST(RegistryTest, SnapshotJsonHasPercentiles) {
  obs::MetricsRegistry r;
  for (int i = 0; i < 100; ++i) r.GetHistogram("h")->Record(64);
  std::string json = r.SnapshotJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // All mass on one value: every percentile is that value (within the
  // bucket's factor-of-two, clamped to observed max = 64).
  EXPECT_NE(json.find("\"p99\":64"), std::string::npos) << json;
}

// --- Prometheus text exposition -------------------------------------

TEST(RegistryTest, SnapshotPrometheusExposition) {
  obs::MetricsRegistry r;
  r.GetCounter("server.requests_accepted")->Add(7);
  r.GetHistogram("server.request_micros")->Record(0);
  r.GetHistogram("server.request_micros")->Record(100);
  std::string text = r.SnapshotPrometheus();

  // Counters: cafe_ prefix, dots to underscores, _total suffix.
  EXPECT_NE(
      text.find("# TYPE cafe_server_requests_accepted_total counter"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("cafe_server_requests_accepted_total 7"),
            std::string::npos);

  // Histograms: cumulative le buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("# TYPE cafe_server_request_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("cafe_server_request_micros_bucket{le=\"0\"} 1"),
            std::string::npos)
      << text;
  // 100 lands in bucket [64,127]; cumulative count at that edge is 2.
  EXPECT_NE(text.find("cafe_server_request_micros_bucket{le=\"127\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cafe_server_request_micros_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cafe_server_request_micros_sum 100"),
            std::string::npos);
  EXPECT_NE(text.find("cafe_server_request_micros_count 2"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// --- Log line formatting --------------------------------------------

TEST(LogTest, FormatLogLine) {
  // 1234567890 s + 123456 us since the epoch.
  const int64_t t = 1234567890123456;
  EXPECT_EQ(obs::FormatLogLine(obs::LogSeverity::kInfo, "hello world",
                               /*trace_id=*/0, t, /*tid=*/0),
            "2009-02-13T23:31:30.123Z I tid=0 hello world");
  EXPECT_EQ(obs::FormatLogLine(obs::LogSeverity::kError, "boom",
                               /*trace_id=*/0xdeadbeef, t, /*tid=*/3),
            "2009-02-13T23:31:30.123Z E tid=3 "
            "trace=00000000deadbeef boom");
  EXPECT_EQ(obs::FormatLogLine(obs::LogSeverity::kWarning, "careful",
                               /*trace_id=*/0, t, /*tid=*/12),
            "2009-02-13T23:31:30.123Z W tid=12 careful");
}

}  // namespace
}  // namespace cafe
