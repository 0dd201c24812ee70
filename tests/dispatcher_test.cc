// Dispatcher semantics: the FIFO admission gate, admission control,
// queue-expired deadlines, accounting and graceful stop — all against
// a stub engine whose Search can be held closed so requests pile up at
// the gate deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "server/dispatcher.h"

namespace cafe::server {
namespace {

// Blocks callers until opened; lets tests hold a request inside the
// engine while more requests pile up behind it.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Engine that waits on a gate, counts entries, records the order in
// which queries enter and the peak number of calls inside it at once,
// and echoes the query length back as the hit score. Its trace gives
// every field a distinct value scaled by the query length, so sums
// over requests tell the fields and the requests apart; "NNNN" fails.
class StubEngine : public SearchEngine {
 public:
  explicit StubEngine(Gate* gate = nullptr, bool concurrent = true)
      : gate_(gate), concurrent_(concurrent) {}

  std::string name() const override { return "stub"; }
  bool SupportsConcurrentSearch() const override { return concurrent_; }

  Result<SearchResult> Search(std::string_view query,
                              const SearchOptions& options) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      order_.emplace_back(query);
      peak_ = std::max(peak_, ++inside_);
    }
    entered_.fetch_add(1);
    if (gate_ != nullptr) gate_->Wait();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inside_;
    }
    SearchResult result;
    if (options.deadline != nullptr && options.deadline->Expired()) {
      result.truncated = true;
      return result;
    }
    if (query == "NNNN") return Status::InvalidArgument("stub rejects NNNN");
    const auto& counters = obs::SearchTrace::kCounters;
    for (size_t k = 0; k < counters.size(); ++k) {
      result.trace.*counters[k].member = (k + 1) * query.size();
    }
    result.trace.queries = 1;
    const auto& timings = obs::SearchTrace::kTimings;
    for (size_t k = 0; k < timings.size(); ++k) {
      result.trace.*timings[k].member = (k + 1) * query.size() + 0.75;
    }
    SearchHit hit;
    hit.seq_id = static_cast<uint32_t>(query.size());
    hit.score = static_cast<int>(query.size());
    result.hits.push_back(hit);
    return result;
  }

  int entered() const { return entered_.load(); }
  int peak() {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }
  std::vector<std::string> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  Gate* const gate_;
  const bool concurrent_;
  std::atomic<int> entered_{0};
  std::mutex mu_;
  int inside_ = 0;
  int peak_ = 0;
  std::vector<std::string> order_;
};

// Sleeps through each search and times itself into trace.total_micros
// with the engines' stage timer, as every real engine does.
class SleepEngine : public SearchEngine {
 public:
  std::string name() const override { return "sleep"; }
  bool SupportsConcurrentSearch() const override { return true; }

  Result<SearchResult> Search(std::string_view /*query*/,
                              const SearchOptions& options) override {
    SearchResult result;
    obs::Span span(options.spans, "search", &result.trace.total_micros);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    span.End();
    result.trace.queries = 1;
    return result;
  }
};

// Polls until `pred` holds (the cross-thread assertions here have no
// completion signal to wait on; 5s is far beyond any healthy run).
template <typename Pred>
void WaitUntil(Pred pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

SearchRequest Req(const std::string& query) {
  SearchRequest r;
  r.query = query;
  return r;
}

uint64_t CounterValue(obs::MetricsRegistry* m, const std::string& name) {
  return m->GetCounter(name)->Value();
}

TEST(DispatcherTest, ExecuteReturnsEngineResult) {
  StubEngine engine;
  DispatcherOptions options;
  Dispatcher dispatcher(&engine, options);
  Result<SearchResult> result = dispatcher.Execute(Req("ACGTACGT"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].score, 8);
  EXPECT_FALSE(result->truncated);
}

// Requests enter the engine in admission order, whatever their
// options: B's narrower result list does not let C overtake it.
TEST(DispatcherTest, RequestsStartInArrivalOrder) {
  Gate gate;
  StubEngine engine(&gate);
  obs::MetricsRegistry metrics;
  DispatcherOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  Dispatcher dispatcher(&engine, options);

  // The first request holds the only search thread in the gated
  // engine...
  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });

  // ...so these three wait, admitted one at a time in a known order.
  SearchRequest b = Req("CCCCC");
  b.max_results = 3;
  const std::vector<SearchRequest> queued = {Req("GGGG"), b, Req("TTTT")};
  for (size_t i = 0; i < queued.size(); ++i) {
    threads.emplace_back(
        [&, i] { EXPECT_TRUE(dispatcher.Execute(queued[i]).ok()); });
    WaitUntil([&] { return dispatcher.QueueDepth() == i + 1; });
  }
  gate.Open();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(engine.order(), (std::vector<std::string>{"AAAA", "GGGG",
                                                      "CCCCC", "TTTT"}));
  EXPECT_EQ(CounterValue(&metrics, "server.requests_accepted"), 4u);
  EXPECT_EQ(CounterValue(&metrics, "server.requests_rejected"), 0u);
}

TEST(DispatcherTest, AtMostWorkersSearchesRunAtOnce) {
  Gate gate;
  StubEngine engine(&gate);
  DispatcherOptions options;
  options.workers = 2;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back(
        [&] { EXPECT_TRUE(dispatcher.Execute(Req("ACGT")).ok()); });
  }
  // Two calls hold both search threads; the other six wait.
  WaitUntil([&] {
    return engine.entered() == 2 && dispatcher.QueueDepth() == 6;
  });
  gate.Open();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(engine.entered(), 8);
  EXPECT_EQ(engine.peak(), 2);
}

// An engine that does not support concurrent Search gets one call at
// a time, whatever `workers` says.
TEST(DispatcherTest, NonConcurrentEngineRunsOneSearchAtATime) {
  Gate gate;
  StubEngine engine(&gate, /*concurrent=*/false);
  DispatcherOptions options;
  options.workers = 4;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&] { EXPECT_TRUE(dispatcher.Execute(Req("ACGT")).ok()); });
  }
  // While the first call is held inside the engine, the other three
  // wait at the gate instead of entering.
  WaitUntil([&] {
    return engine.entered() > 1 ||
           (engine.entered() == 1 && dispatcher.QueueDepth() == 3);
  });
  EXPECT_EQ(engine.entered(), 1);
  gate.Open();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(engine.entered(), 4);
  EXPECT_EQ(engine.peak(), 1);
}

TEST(DispatcherTest, FullQueueRejectsWithOverloaded) {
  Gate gate;
  StubEngine engine(&gate);
  obs::MetricsRegistry metrics;
  DispatcherOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.metrics = &metrics;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("CCCC")).ok()); });
  WaitUntil([&] { return dispatcher.QueueDepth() == 1; });

  // Queue is at max_queue: this must return immediately (the gate is
  // still closed — if it queued, it would hang here).
  Result<SearchResult> rejected = dispatcher.Execute(Req("GGGG"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsOverloaded())
      << rejected.status().ToString();
  EXPECT_EQ(CounterValue(&metrics, "server.requests_rejected"), 1u);

  gate.Open();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(CounterValue(&metrics, "server.requests_accepted"), 2u);
}

TEST(DispatcherTest, QueueExpiredDeadlineCompletesWithoutEngineCall) {
  Gate gate;
  StubEngine engine(&gate);
  obs::MetricsRegistry metrics;
  DispatcherOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });

  SearchRequest doomed = Req("CCCC");
  doomed.deadline_millis = 1;
  Result<SearchResult> result = Status::Internal("not yet completed");
  threads.emplace_back([&] { result = dispatcher.Execute(doomed); });
  WaitUntil([&] { return dispatcher.QueueDepth() == 1; });
  // Let the queued request's 1ms budget expire before the worker frees.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  EXPECT_TRUE(result->hits.empty());
  // Only the blocker reached the engine.
  EXPECT_EQ(engine.entered(), 1);
  EXPECT_EQ(CounterValue(&metrics, "server.deadline_exceeded"), 1u);
}

TEST(DispatcherTest, FlightRecorderGetsOneRecordPerRequest) {
  StubEngine engine;
  obs::FlightRecorder flight(
      {.capacity = 8, .slow_micros = 0, .slow_capacity = 8});  // pin all
  DispatcherOptions options;
  options.flight = &flight;
  Dispatcher dispatcher(&engine, options);

  SearchRequest req = Req("ACGTACGT");
  req.trace_id = 0xabcdef;
  ASSERT_TRUE(dispatcher.Execute(req).ok());
  ASSERT_TRUE(dispatcher.Execute(Req("CCCC")).ok());  // no trace id

  EXPECT_EQ(flight.recorded(), 2u);
  std::vector<obs::FlightRecord> recent = flight.Recent(8);
  ASSERT_EQ(recent.size(), 2u);
  // Newest first: the id-less request, then the traced one.
  EXPECT_EQ(recent[0].trace_id, 0u);
  EXPECT_EQ(recent[1].trace_id, 0xabcdefu);
  EXPECT_EQ(recent[1].hits, 1u);
  EXPECT_EQ(recent[1].status_code, 0u);  // wire code for OK
  EXPECT_FALSE(recent[1].truncated);
  EXPECT_FALSE(recent[1].deadline_expired);
  EXPECT_GE(recent[1].total_micros, recent[1].queue_micros);
  // slow_micros = 0 pins every record into the slow log too.
  EXPECT_EQ(flight.slow_recorded(), 2u);
}

TEST(DispatcherTest, QueueExpiredRequestLeavesDeadlineExpiredRecord) {
  Gate gate;
  StubEngine engine(&gate);
  obs::FlightRecorder flight({.capacity = 8, .slow_micros = 0});
  DispatcherOptions options;
  options.workers = 1;
  options.flight = &flight;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });

  SearchRequest doomed = Req("CCCC");
  doomed.deadline_millis = 1;
  doomed.trace_id = 0xd00dull;
  Result<SearchResult> result = Status::Internal("not yet completed");
  threads.emplace_back([&] { result = dispatcher.Execute(doomed); });
  WaitUntil([&] { return dispatcher.QueueDepth() == 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);

  // Both requests are on record; the doomed one says why it was empty.
  EXPECT_EQ(flight.recorded(), 2u);
  bool found = false;
  for (const obs::FlightRecord& r : flight.Recent(8)) {
    if (r.trace_id != 0xd00dull) continue;
    found = true;
    EXPECT_TRUE(r.truncated);
    EXPECT_TRUE(r.deadline_expired);
    EXPECT_EQ(r.hits, 0u);
  }
  EXPECT_TRUE(found);
}

// /metrics and /flightz tell one story: each request's own trace is
// added once to the search.* metrics, so every counter is the sum of
// its field over the flight records, and every stage histogram holds
// one sample per request that reached the engine. A queue-expired and
// a failed request carry empty traces and add nothing.
TEST(DispatcherTest, SearchMetricsSumTheFlightRecords) {
  Gate gate;
  StubEngine engine(&gate);
  obs::MetricsRegistry metrics;
  obs::FlightRecorder flight({.capacity = 16});
  DispatcherOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  options.flight = &flight;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok()); });
  WaitUntil([&] { return engine.entered() == 1; });
  SearchRequest doomed = Req("CCCC");
  doomed.deadline_millis = 1;
  threads.emplace_back([&] {
    Result<SearchResult> r = dispatcher.Execute(doomed);
    EXPECT_TRUE(r.ok() && r->truncated);
  });
  WaitUntil([&] { return dispatcher.QueueDepth() == 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  for (std::thread& t : threads) t.join();
  for (const char* q : {"ACG", "ACGTACGTAC", "ACGTA", "ACGTACGTACGTACG"}) {
    EXPECT_TRUE(dispatcher.Execute(Req(q)).ok()) << q;
  }
  EXPECT_FALSE(dispatcher.Execute(Req("NNNN")).ok());

  const std::vector<obs::FlightRecord> records = flight.Recent(16);
  ASSERT_EQ(records.size(), 7u);
  uint64_t searched = 0;
  for (const obs::FlightRecord& r : records) {
    if (r.trace.queries > 0) ++searched;
  }
  ASSERT_EQ(searched, 5u);  // not the queue-expired or the failed one

  const obs::MetricsSnapshot snap = metrics.SnapshotData();
  for (const auto& f : obs::SearchTrace::kCounters) {
    uint64_t want = 0;
    for (const obs::FlightRecord& r : records) want += r.trace.*f.member;
    const std::string name = std::string("search.") + f.name;
    ASSERT_EQ(snap.counters.count(name), 1u) << name;
    EXPECT_EQ(snap.counters.at(name), want) << name;
  }
  for (const auto& f : obs::SearchTrace::kTimings) {
    uint64_t want_sum = 0;
    for (const obs::FlightRecord& r : records) {
      if (r.trace.queries > 0) {
        want_sum += static_cast<uint64_t>(r.trace.*f.member);
      }
    }
    const std::string name = std::string("search.") + f.name;
    ASSERT_EQ(snap.histograms.count(name), 1u) << name;
    EXPECT_EQ(snap.histograms.at(name).count, searched) << name;
    EXPECT_EQ(snap.histograms.at(name).sum, want_sum) << name;
  }
}

// One clock: the server.* latency histograms and the flight record are
// read from the same admission, dispatch and completion stamps.
TEST(DispatcherTest, LatencyMetricsMatchTheFlightRecord) {
  StubEngine engine;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder flight({.capacity = 4});
  DispatcherOptions options;
  options.metrics = &metrics;
  options.flight = &flight;
  Dispatcher dispatcher(&engine, options);
  ASSERT_TRUE(dispatcher.Execute(Req("ACGTACGT")).ok());

  const std::vector<obs::FlightRecord> records = flight.Recent(4);
  ASSERT_EQ(records.size(), 1u);
  const obs::MetricsSnapshot snap = metrics.SnapshotData();
  const obs::Histogram::Snapshot& request =
      snap.histograms.at("server.request_micros");
  const obs::Histogram::Snapshot& queue =
      snap.histograms.at("server.queue_wait_micros");
  EXPECT_EQ(request.count, 1u);
  EXPECT_EQ(request.sum, records[0].total_micros);
  EXPECT_EQ(queue.count, 1u);
  EXPECT_EQ(queue.sum, records[0].queue_micros);
  EXPECT_GE(records[0].total_micros, records[0].queue_micros);
}

// The stage times add up: a request's end-to-end time is its queue
// wait plus its own engine call. (A request that waited for other
// requests' searches inside a shared call would break the sum.)
TEST(DispatcherTest, QueueWaitPlusSearchTimeIsRequestTime) {
  SleepEngine engine;
  obs::MetricsRegistry metrics;
  DispatcherOptions options;
  options.workers = 2;
  options.metrics = &metrics;
  Dispatcher dispatcher(&engine, options);

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(dispatcher.Execute(Req("ACGT")).ok());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const obs::MetricsSnapshot snap = metrics.SnapshotData();
  const obs::Histogram::Snapshot& search =
      snap.histograms.at("search.total_micros");
  const uint64_t queue = snap.histograms.at("server.queue_wait_micros").sum;
  const uint64_t request = snap.histograms.at("server.request_micros").sum;
  EXPECT_EQ(search.count, 20u);
  EXPECT_GT(queue, 0u);  // four clients on two search threads: a queue stood
  EXPECT_NEAR(static_cast<double>(queue + search.sum),
              static_cast<double>(request), 0.1 * request);
}

TEST(DispatcherTest, StopDrainsAdmittedRequests) {
  Gate gate;
  StubEngine engine(&gate);
  DispatcherOptions options;
  options.workers = 1;
  Dispatcher dispatcher(&engine, options);

  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    EXPECT_TRUE(dispatcher.Execute(Req("AAAA")).ok());
    completed.fetch_add(1);
  });
  WaitUntil([&] { return engine.entered() == 1; });
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      EXPECT_TRUE(dispatcher.Execute(Req("CCCC")).ok());
      completed.fetch_add(1);
    });
  }
  WaitUntil([&] { return dispatcher.QueueDepth() == 3; });

  std::thread stopper([&] { gate.Open(); dispatcher.Stop(); });
  for (std::thread& t : threads) t.join();
  stopper.join();

  // Stop() returned only after every admitted request completed.
  EXPECT_EQ(completed.load(), 4);
  EXPECT_EQ(dispatcher.QueueDepth(), 0u);
}

TEST(DispatcherTest, ExecuteAfterStopIsOverloaded) {
  StubEngine engine;
  DispatcherOptions options;
  Dispatcher dispatcher(&engine, options);
  dispatcher.Stop();
  Result<SearchResult> result = dispatcher.Execute(Req("ACGT"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOverloaded());
}

TEST(DispatcherTest, StopIsIdempotentAndSafeConcurrently) {
  StubEngine engine;
  DispatcherOptions options;
  Dispatcher dispatcher(&engine, options);
  std::thread a([&] { dispatcher.Stop(); });
  std::thread b([&] { dispatcher.Stop(); });
  a.join();
  b.join();
  dispatcher.Stop();  // and again, once stopped
}

}  // namespace
}  // namespace cafe::server
