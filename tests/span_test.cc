// Tests for the span timeline layer (src/obs/span.{h,cc}) and its
// engine instrumentation: recorder semantics (implicit anchor, arena
// overflow, cross-thread AddSpan), Chrome trace JSON export, sampling,
// the /tracez backing store, and — the load-bearing contract — that a
// search records the same span names and the same (name, parent-name)
// tree shape at every thread count. The 4-thread cases run under TSan
// in CI, exercising the lock-free arena against concurrent fine
// workers.

#include "obs/span.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "search/blast_like.h"
#include "search/exhaustive.h"
#include "search/fasta_like.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace cafe {
namespace {

// --- SpanRecorder ----------------------------------------------------

TEST(SpanRecorderTest, StartEndBuildsATreeUnderTheAnchor) {
  obs::SpanRecorder rec(0xabcdef);
  EXPECT_EQ(rec.trace_id(), 0xabcdefu);
  EXPECT_EQ(rec.current(), 0u);

  uint32_t root = rec.StartSpan("request");
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(rec.current(), root);

  uint32_t child = rec.StartSpan("search");
  EXPECT_EQ(rec.current(), child);
  uint32_t grandchild = rec.StartSpan("coarse.rank");
  rec.EndSpan(grandchild);
  EXPECT_EQ(rec.current(), child);  // anchor popped back to the parent
  rec.EndSpan(child);
  EXPECT_EQ(rec.current(), root);
  rec.EndSpan(root);
  EXPECT_EQ(rec.current(), 0u);

  std::vector<obs::SpanEvent> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, child);
  for (const obs::SpanEvent& s : spans) {
    EXPECT_GE(s.end_ns, s.begin_ns) << s.name;
    EXPECT_EQ(s.tid, obs::DenseThreadId());
  }
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(SpanRecorderTest, ExplicitParentAndAddSpanLeaveTheAnchorAlone) {
  obs::SpanRecorder rec(1);
  uint32_t root = rec.StartSpan("request");

  uint32_t side = rec.StartSpan("queue.wait", /*parent=*/root);
  EXPECT_EQ(rec.current(), root);  // explicit-parent form: anchor unmoved
  rec.EndSpan(side);
  EXPECT_EQ(rec.current(), root);  // non-anchor end: anchor unmoved

  uint64_t begin = obs::SpanRecorder::NowNanos();
  uint64_t end = obs::SpanRecorder::NowNanos();
  uint32_t added = rec.AddSpan("fine.worker", root, /*tid=*/42, begin, end);
  EXPECT_NE(added, 0u);
  EXPECT_EQ(rec.current(), root);

  std::vector<obs::SpanEvent> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[2].tid, 42u);  // AddSpan keeps the caller's stamps
  EXPECT_EQ(spans[2].begin_ns, begin);
  EXPECT_EQ(spans[2].end_ns, end);
}

TEST(SpanRecorderTest, OverflowCountsDroppedAndStaysValid) {
  obs::SpanRecorder rec(7, /*capacity=*/2);
  uint32_t a = rec.StartSpan("request");
  uint32_t b = rec.StartSpan("search");
  uint32_t c = rec.StartSpan("coarse.rank");  // arena full
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(rec.AddSpan("fine.worker", b, 0, 0, 0), 0u);
  rec.EndSpan(c);  // EndSpan(0) must be a no-op
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 2u);
  // The dropped span never became the anchor, so the open spans are
  // still nested correctly.
  EXPECT_EQ(rec.current(), b);
  // Export still works, and reports the loss.
  std::string json = rec.ChromeTraceJson();
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos) << json;
}

TEST(SpanRecorderTest, ConcurrentRecordingClaimsUniqueSlots) {
  // Run under TSan in CI: many threads hammering one arena must neither
  // race nor lose spans.
  obs::SpanRecorder rec(9, /*capacity=*/4096);
  constexpr size_t kSpans = 4000;
  ThreadPool pool(8);
  pool.ParallelFor(kSpans, [&](size_t i, unsigned /*w*/) {
    if (i % 2 == 0) {
      uint32_t id = rec.StartSpan("fine.align", /*parent=*/0);
      rec.EndSpan(id);
    } else {
      uint64_t now = obs::SpanRecorder::NowNanos();
      rec.AddSpan("fine.worker", 0, obs::DenseThreadId(), now, now);
    }
  });
  EXPECT_EQ(rec.size(), kSpans);
  EXPECT_EQ(rec.dropped(), 0u);
  std::set<uint32_t> ids;
  for (const obs::SpanEvent& s : rec.Snapshot()) ids.insert(s.id);
  EXPECT_EQ(ids.size(), kSpans);  // every slot claimed exactly once
}

TEST(SpanRecorderTest, ChromeTraceJsonShape) {
  obs::SpanRecorder rec(0xdeadbeef);
  uint32_t root = rec.StartSpan("request");
  uint32_t child = rec.StartSpan("search");
  rec.EndSpan(child);
  rec.EndSpan(root);
  uint32_t open = rec.StartSpan("queue.wait");  // left open on purpose

  std::string json = rec.ChromeTraceJson();
  EXPECT_NE(json.find("\"trace_id\":\"00000000deadbeef\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"id\":1,\"parent\":0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"id\":2,\"parent\":1}"),
            std::string::npos)
      << json;
  // The unclosed span renders with dur 0, not a negative duration.
  EXPECT_NE(open, 0u);
  EXPECT_NE(json.find("\"dur\":0.000"), std::string::npos) << json;
  EXPECT_EQ(json.find("-"), std::string::npos) << json;
}

TEST(SpanTest, NullRecorderIsANoOp) {
  obs::Span detached(nullptr, "search");
  EXPECT_EQ(detached.id(), 0u);  // and the destructor must not crash
}

// --- SpanSampler -----------------------------------------------------

TEST(SpanSamplerTest, RateZeroNeverRateOneAlways) {
  obs::SpanSampler never(0.0);
  obs::SpanSampler always(1.0);
  for (uint64_t id : {0ull, 1ull, 0xdeadbeefull}) {
    EXPECT_FALSE(never.ShouldSample(id));
    EXPECT_TRUE(always.ShouldSample(id));
  }
}

TEST(SpanSamplerTest, DecisionIsDeterministicPerTraceId) {
  obs::SpanSampler a(0.25);
  obs::SpanSampler b(0.25);
  size_t sampled = 0;
  for (uint64_t id = 1; id <= 4000; ++id) {
    bool first = a.ShouldSample(id);
    EXPECT_EQ(first, a.ShouldSample(id)) << id;  // stable across calls
    EXPECT_EQ(first, b.ShouldSample(id)) << id;  // and across samplers
    EXPECT_EQ(first, obs::SplitMix64Hash(id) <
                         static_cast<uint64_t>(0.25 *
                                               18446744073709551616.0));
    if (first) ++sampled;
  }
  // A well-mixed hash should land near the configured rate.
  EXPECT_GT(sampled, 4000u * 15 / 100);
  EXPECT_LT(sampled, 4000u * 35 / 100);
}

TEST(SpanSamplerTest, ZeroTraceIdFallsBackToRoundRobin) {
  obs::SpanSampler sampler(0.25);
  size_t sampled = 0;
  for (int i = 0; i < 400; ++i) {
    if (sampler.ShouldSample(0)) ++sampled;
  }
  EXPECT_EQ(sampled, 100u);  // exactly every 4th id-less request
}

// --- SpanStore -------------------------------------------------------

TEST(SpanStoreTest, PutGetListAndEviction) {
  obs::SpanStore store(/*capacity=*/2);
  EXPECT_EQ(store.size(), 0u);
  std::string json;
  EXPECT_FALSE(store.GetJson(1, &json));

  for (uint64_t id = 1; id <= 3; ++id) {
    obs::SpanRecorder rec(id);
    rec.EndSpan(rec.StartSpan("request"));
    store.Put(rec);
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.GetJson(1, &json));  // oldest evicted
  ASSERT_TRUE(store.GetJson(3, &json));
  EXPECT_NE(json.find("\"trace_id\":\"0000000000000003\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);

  // The index page lists newest first with span counts.
  std::string list = store.ListJson();
  size_t pos3 = list.find("0000000000000003");
  size_t pos2 = list.find("0000000000000002");
  EXPECT_NE(pos3, std::string::npos) << list;
  EXPECT_NE(pos2, std::string::npos) << list;
  EXPECT_LT(pos3, pos2);
  EXPECT_NE(list.find("\"spans\":1"), std::string::npos) << list;
}

// --- Engine instrumentation: thread-count-invariant timelines --------

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

// The timeline reduced to its thread-count-invariant shape: the set of
// names and the set of (name, parent name) edges. Durations, tids and
// worker multiplicity may vary with --threads; the shape may not.
struct TimelineShape {
  std::set<std::string> names;
  std::set<std::pair<std::string, std::string>> edges;
};

TimelineShape ShapeOf(const obs::SpanRecorder& rec) {
  std::map<uint32_t, std::string> by_id;
  for (const obs::SpanEvent& s : rec.Snapshot()) {
    by_id[s.id] = s.name;
  }
  TimelineShape shape;
  for (const obs::SpanEvent& s : rec.Snapshot()) {
    shape.names.insert(s.name);
    shape.edges.insert(
        {s.name, s.parent == 0 ? std::string("root") : by_id[s.parent]});
  }
  return shape;
}

TEST(SpanEngineTest, TimelineShapeIsThreadCountInvariant) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);

  std::vector<TimelineShape> reference;  // per query, from --threads 1
  for (uint32_t threads : {1u, 4u}) {
    std::vector<TimelineShape> shapes;
    for (const sim::PlantedQuery& q : f.queries) {
      SearchOptions options;
      options.fine_candidates = 20;
      options.threads = threads;
      options.chain_mode = ChainMode::kFilter;
      obs::SpanRecorder rec(0x5eed);
      options.spans = &rec;
      Result<SearchResult> r = engine.Search(q.sequence, options);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(rec.dropped(), 0u);
      EXPECT_EQ(rec.current(), 0u);  // every span closed
      shapes.push_back(ShapeOf(rec));
    }
    if (reference.empty()) {
      reference = std::move(shapes);
      continue;
    }
    for (size_t i = 0; i < shapes.size(); ++i) {
      EXPECT_EQ(shapes[i].names, reference[i].names) << "query " << i;
      EXPECT_EQ(shapes[i].edges, reference[i].edges) << "query " << i;
    }
  }

  // The engine alone records the full phase catalogue below the
  // dispatcher: one search root, coarse + postings, chaining, the fine
  // phase with its per-worker spans and merge, and post-processing.
  const std::set<std::string> expected = {
      "search",      "coarse.rank", "index.postings", "chain.filter",
      "fine.align",  "fine.worker", "fine.merge",     "post.process"};
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].names, expected) << "query " << i;
    EXPECT_TRUE(reference[i].edges.count({"fine.worker", "fine.align"}))
        << "query " << i;
    EXPECT_TRUE(reference[i].edges.count({"index.postings", "coarse.rank"}))
        << "query " << i;
    EXPECT_TRUE(reference[i].edges.count({"search", "root"}))
        << "query " << i;
  }
}

TEST(SpanEngineTest, FineWorkerSpansCarryPoolThreadStamps) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);

  SearchOptions options;
  options.fine_candidates = 20;
  options.threads = 4;
  obs::SpanRecorder rec(0xf00d);
  options.spans = &rec;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::map<uint32_t, obs::SpanEvent> by_id;
  for (const obs::SpanEvent& s : rec.Snapshot()) by_id[s.id] = s;
  uint64_t fine_begin = 0;
  uint64_t fine_end = 0;
  size_t workers = 0;
  for (const auto& [id, s] : by_id) {
    if (std::string(s.name) == "fine.align") {
      fine_begin = s.begin_ns;
      fine_end = s.end_ns;
    }
  }
  ASSERT_NE(fine_begin, 0u);
  for (const auto& [id, s] : by_id) {
    if (std::string(s.name) != "fine.worker") continue;
    ++workers;
    // Nested inside the fine phase, and measured on the pool thread —
    // which is never the coordinating thread that opened fine.align.
    EXPECT_STREQ(by_id[s.parent].name, "fine.align");
    EXPECT_GE(s.begin_ns, fine_begin);
    EXPECT_LE(s.end_ns, fine_end);
    EXPECT_GE(s.end_ns, s.begin_ns);
    EXPECT_NE(s.tid, by_id[s.parent].tid);
  }
  EXPECT_GE(workers, 1u);
  EXPECT_LE(workers, 4u);
}

// One stage timer: the span a sampled query records for a stage and the
// trace field for that stage come from the same pair of clock reads, so
// they agree to the nanosecond.
TEST(SpanEngineTest, StageSpansEqualTraceTimings) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;
  obs::SpanRecorder rec(0x71e);
  options.spans = &rec;
  Result<SearchResult> r = engine.Search(f.queries[0].sequence, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::map<std::string, std::vector<uint64_t>> durations_ns;
  for (const obs::SpanEvent& s : rec.Snapshot()) {
    durations_ns[s.name].push_back(s.end_ns - s.begin_ns);
  }
  const obs::SearchTrace& t = r->trace;
  const std::vector<std::pair<std::string, double>> stages = {
      {"search", t.total_micros},
      {"coarse.rank", t.coarse_micros},
      {"chain.filter", t.chain_micros},
      {"fine.align", t.fine_micros},
      {"post.process", t.post_micros}};
  for (const auto& [name, micros] : stages) {
    ASSERT_EQ(durations_ns[name].size(), 1u) << name;
    EXPECT_NEAR(static_cast<double>(durations_ns[name][0]), micros * 1000.0,
                1.0)
        << name;
  }
}

// Every engine times its whole search, and the stages it splits out fit
// inside that total — also when a deadline cuts the search short.
TEST(SpanEngineTest, TotalCoversTheStagesForEveryEngine) {
  Fixture f = MakeFixture();
  PartitionedSearch partitioned(&f.collection, &f.index);
  ExhaustiveSearch exhaustive(&f.collection);
  FastaLikeSearch fasta(&f.collection);
  BlastLikeSearch blast(&f.collection);
  SearchOptions options;
  options.fine_candidates = 20;
  options.chain_mode = ChainMode::kFilter;
  const Deadline expired = Deadline::AfterSeconds(-1.0);
  SearchOptions truncating = options;
  truncating.deadline = &expired;

  struct Case {
    std::string label;
    SearchEngine* engine;
    const SearchOptions* options;
  };
  const std::vector<Case> cases = {
      {"partitioned", &partitioned, &options},
      {"partitioned (deadline expired)", &partitioned, &truncating},
      {"exhaustive", &exhaustive, &options},
      {"fasta-like", &fasta, &options},
      {"blast-like", &blast, &options}};
  for (const Case& c : cases) {
    Result<SearchResult> r =
        c.engine->Search(f.queries[0].sequence, *c.options);
    ASSERT_TRUE(r.ok()) << c.label << ": " << r.status().ToString();
    EXPECT_EQ(r->truncated, c.options == &truncating) << c.label;
    const obs::SearchTrace& t = r->trace;
    EXPECT_EQ(t.queries, 1u) << c.label;
    EXPECT_GT(t.total_micros, 0.0) << c.label;
    EXPECT_GE(t.total_micros,
              t.coarse_micros + t.chain_micros + t.fine_micros +
                  t.post_micros)
        << c.label;
  }
}

}  // namespace
}  // namespace cafe
