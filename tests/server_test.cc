// End-to-end server lifecycle over real sockets: results through the
// wire must be byte-identical to direct engine calls, concurrent
// clients must all be served, overload and deadline failures must be
// visible to the client, finished connections must not pin their
// threads, and shutdown must drain in-flight requests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "search/partitioned.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/generator.h"
#include "sim/workload.h"
#include "util/version.h"

namespace cafe::server {
namespace {

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::vector<std::string> queries;
};

Fixture MakeFixture(uint32_t num_queries = 6) {
  sim::CollectionOptions copt;
  copt.num_sequences = 80;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 4242;
  Result<SequenceCollection> col =
      sim::CollectionGenerator(copt).Generate();
  EXPECT_TRUE(col.ok()) << col.status().ToString();

  IndexOptions iopt;
  iopt.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, iopt);
  EXPECT_TRUE(index.ok()) << index.status().ToString();

  Result<std::vector<std::string>> queries =
      sim::SampleQueries(*col, num_queries, 220, 0.08, 17);
  EXPECT_TRUE(queries.ok()) << queries.status().ToString();

  Fixture f;
  f.collection = std::move(*col);
  f.index = std::move(*index);
  f.queries = std::move(*queries);
  return f;
}

// Everything that travels on the wire must match the direct answer.
void ExpectSameHits(const std::vector<SearchHit>& direct,
                    const std::vector<SearchHit>& remote) {
  ASSERT_EQ(direct.size(), remote.size());
  for (size_t h = 0; h < direct.size(); ++h) {
    EXPECT_EQ(direct[h].seq_id, remote[h].seq_id) << "hit " << h;
    EXPECT_EQ(direct[h].score, remote[h].score) << "hit " << h;
    EXPECT_EQ(direct[h].coarse_score, remote[h].coarse_score)
        << "hit " << h;
    EXPECT_EQ(direct[h].strand, remote[h].strand) << "hit " << h;
  }
}

std::unique_ptr<Client> MustConnect(const Server& server) {
  Result<std::unique_ptr<Client>> client =
      Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

TEST(ServerTest, SearchMatchesDirectEngine) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  Server server(&engine, ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  std::unique_ptr<Client> client = MustConnect(server);
  EXPECT_EQ(client->server_version(), kVersionString);

  for (const std::string& query : f.queries) {
    SearchRequest request;
    request.query = query;
    SearchResponse response;
    Status sent = client->Search(request, &response);
    ASSERT_TRUE(sent.ok()) << sent.ToString();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.truncated);

    Result<SearchResult> direct =
        SearchWithStrands(&engine, query, request.ToSearchOptions());
    ASSERT_TRUE(direct.ok());
    ExpectSameHits(direct->hits, response.hits);
  }
  server.Shutdown();
}

TEST(ServerTest, BothStrandOptionsTravelTheWire) {
  Fixture f = MakeFixture(/*num_queries=*/3);
  PartitionedSearch engine(&f.collection, &f.index);
  Server server(&engine, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client = MustConnect(server);

  SearchRequest request;
  request.query = f.queries[0];
  request.both_strands = true;
  request.max_results = 5;
  request.fine_candidates = 40;
  SearchResponse response;
  ASSERT_TRUE(client->Search(request, &response).ok());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  Result<SearchResult> direct = SearchWithStrands(
      &engine, request.query, request.ToSearchOptions());
  ASSERT_TRUE(direct.ok());
  ExpectSameHits(direct->hits, response.hits);
  server.Shutdown();
}

TEST(ServerTest, FourConcurrentClientsGetCorrectAnswers) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  ServerOptions options;
  options.dispatcher.workers = 2;
  Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Reference answers computed directly, once.
  std::vector<std::vector<SearchHit>> expected;
  for (const std::string& query : f.queries) {
    Result<SearchResult> direct =
        SearchWithStrands(&engine, query, SearchRequest().ToSearchOptions());
    ASSERT_TRUE(direct.ok());
    expected.push_back(direct->hits);
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<Client> client = MustConnect(server);
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < f.queries.size(); ++q) {
          SearchRequest request;
          request.query = f.queries[(q + c) % f.queries.size()];
          SearchResponse response;
          if (!client->Search(request, &response).ok() ||
              !response.status.ok()) {
            failures.fetch_add(1);
            return;
          }
          ExpectSameHits(expected[(q + c) % f.queries.size()],
                         response.hits);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Shutdown();
}

TEST(ServerTest, TraceIdIsEchoedEndToEnd) {
  Fixture f = MakeFixture(/*num_queries=*/1);
  PartitionedSearch engine(&f.collection, &f.index);
  Server server(&engine, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client = MustConnect(server);

  SearchRequest request;
  request.query = f.queries[0];
  request.trace_id = 0x1122334455667788ull;
  SearchResponse response;
  ASSERT_TRUE(client->Search(request, &response).ok());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.trace_id, 0x1122334455667788ull);

  // Errors echo the id too — it is how the caller correlates failures.
  SearchRequest bad;
  bad.query = "AC!!GT";
  bad.trace_id = 0x99ull;
  ASSERT_TRUE(client->Search(bad, &response).ok());
  EXPECT_TRUE(response.status.IsInvalidArgument());
  EXPECT_EQ(response.trace_id, 0x99ull);
  server.Shutdown();
}

TEST(ServerTest, ClientMintsTraceIdWhenCallerLeavesItZero) {
  Fixture f = MakeFixture(/*num_queries=*/2);
  PartitionedSearch engine(&f.collection, &f.index);
  Server server(&engine, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client = MustConnect(server);

  SearchRequest request;
  request.query = f.queries[0];
  ASSERT_EQ(request.trace_id, 0u);  // caller did not set one
  SearchResponse first;
  ASSERT_TRUE(client->Search(request, &first).ok());
  EXPECT_NE(first.trace_id, 0u);  // minted by the client

  SearchResponse second;
  ASSERT_TRUE(client->Search(request, &second).ok());
  EXPECT_NE(second.trace_id, 0u);
  EXPECT_NE(second.trace_id, first.trace_id);  // unique per request
  server.Shutdown();
}

TEST(ServerTest, StatsVerbReturnsServerMetrics) {
  Fixture f = MakeFixture(/*num_queries=*/1);
  PartitionedSearch engine(&f.collection, &f.index);
  Server server(&engine, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client = MustConnect(server);

  SearchRequest request;
  request.query = f.queries[0];
  SearchResponse response;
  ASSERT_TRUE(client->Search(request, &response).ok());

  std::string json;
  ASSERT_TRUE(client->Stats(&json).ok());
  EXPECT_NE(json.find("\"command\":\"stats\""), std::string::npos) << json;
  EXPECT_NE(json.find("server.requests_accepted"), std::string::npos)
      << json;
  EXPECT_NE(json.find("server.connections"), std::string::npos) << json;
  EXPECT_NE(json.find(kVersionString), std::string::npos) << json;
  server.Shutdown();
}

TEST(ServerTest, InvalidQueryFailsThatRequestOnly) {
  Fixture f = MakeFixture(/*num_queries=*/1);
  PartitionedSearch engine(&f.collection, &f.index);
  Server server(&engine, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<Client> client = MustConnect(server);

  SearchRequest bad;
  bad.query = "AC!!GT";
  SearchResponse response;
  ASSERT_TRUE(client->Search(bad, &response).ok());
  EXPECT_TRUE(response.status.IsInvalidArgument())
      << response.status.ToString();

  // The connection survives an in-band error: the next request works.
  SearchRequest good;
  good.query = f.queries[0];
  ASSERT_TRUE(client->Search(good, &response).ok());
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  server.Shutdown();
}

// --- Gated stub engine for overload / deadline / drain tests ---------

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

class GatedEngine : public SearchEngine {
 public:
  explicit GatedEngine(Gate* gate) : gate_(gate) {}
  std::string name() const override { return "gated-stub"; }
  bool SupportsConcurrentSearch() const override { return true; }
  Result<SearchResult> Search(std::string_view query,
                              const SearchOptions& options) override {
    entered_.fetch_add(1);
    gate_->Wait();
    SearchResult result;
    if (options.deadline != nullptr && options.deadline->Expired()) {
      result.truncated = true;
      return result;
    }
    SearchHit hit;
    hit.seq_id = static_cast<uint32_t>(query.size());
    hit.score = 1;
    result.hits.push_back(hit);
    return result;
  }
  int entered() const { return entered_.load(); }

 private:
  Gate* gate_;
  std::atomic<int> entered_{0};
};

template <typename Pred>
void WaitUntil(Pred pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

TEST(ServerTest, OverloadSurfacesAsOverloadedStatus) {
  Gate gate;
  GatedEngine engine(&gate);
  ServerOptions options;
  options.dispatcher.workers = 1;
  options.dispatcher.max_queue = 1;
  Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the worker, then fill the one queue slot.
  std::thread blocked([&] {
    std::unique_ptr<Client> client = MustConnect(server);
    SearchResponse response;
    EXPECT_TRUE(client->Search(SearchRequest{.query = "AAAA"}, &response)
                    .ok());
    EXPECT_TRUE(response.status.ok());
  });
  WaitUntil([&] { return engine.entered() == 1; });
  std::thread queued([&] {
    std::unique_ptr<Client> client = MustConnect(server);
    SearchResponse response;
    EXPECT_TRUE(client->Search(SearchRequest{.query = "CCCC"}, &response)
                    .ok());
    EXPECT_TRUE(response.status.ok());
  });
  obs::MetricsRegistry* metrics = server.metrics();
  WaitUntil([&] {
    return metrics->GetCounter("server.requests_accepted")->Value() == 2;
  });

  // Queue full: this request must come back kOverloaded immediately,
  // while the gate is still closed.
  std::unique_ptr<Client> client = MustConnect(server);
  SearchResponse response;
  ASSERT_TRUE(
      client->Search(SearchRequest{.query = "GGGG"}, &response).ok());
  EXPECT_TRUE(response.status.IsOverloaded())
      << response.status.ToString();

  gate.Open();
  blocked.join();
  queued.join();
  server.Shutdown();
}

TEST(ServerTest, DeadlineExpiredInQueueReturnsTruncatedFast) {
  Gate gate;
  GatedEngine engine(&gate);
  ServerOptions options;
  options.dispatcher.workers = 1;
  Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  std::thread blocked([&] {
    std::unique_ptr<Client> client = MustConnect(server);
    SearchResponse response;
    EXPECT_TRUE(client->Search(SearchRequest{.query = "AAAA"}, &response)
                    .ok());
  });
  WaitUntil([&] { return engine.entered() == 1; });

  SearchResponse response;
  std::unique_ptr<Client> client = MustConnect(server);
  SearchRequest doomed;
  doomed.query = "CCCC";
  doomed.deadline_millis = 10;
  std::thread doomed_thread([&] {
    EXPECT_TRUE(client->Search(doomed, &response).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Open();
  doomed_thread.join();
  blocked.join();

  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.truncated);
  EXPECT_TRUE(response.hits.empty());
  EXPECT_GE(server.metrics()->GetCounter("server.deadline_exceeded")
                ->Value(),
            1u);
  server.Shutdown();
}

TEST(ServerTest, ShutdownDrainsInFlightRequests) {
  Gate gate;
  GatedEngine engine(&gate);
  ServerOptions options;
  options.dispatcher.workers = 1;
  Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> got_response{false};
  std::thread in_flight([&] {
    std::unique_ptr<Client> client = MustConnect(server);
    SearchResponse response;
    Status s = client->Search(SearchRequest{.query = "AAAA"}, &response);
    if (s.ok() && response.status.ok() && !response.hits.empty()) {
      got_response.store(true);
    }
  });
  WaitUntil([&] { return engine.entered() == 1; });

  // Shutdown begins while the request is mid-engine; it must wait for
  // the response to be written, not cut the connection.
  std::thread shutdown([&] { server.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  shutdown.join();
  in_flight.join();
  EXPECT_TRUE(got_response.load());

  // The listening socket is gone after shutdown.
  Result<std::unique_ptr<Client>> late =
      Client::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(late.ok());
}

// This process's virtual size in KiB, from /proc/self/status.
int64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize line in /proc/self/status";
  return 0;
}

TEST(ServerTest, FinishedConnectionThreadsAreJoined) {
  // Every connection runs on its own thread, and an unjoined thread
  // keeps its ~8 MiB stack mapped: 200 short-lived clients would pin
  // over 1.5 GiB if ended connections were joined only at Shutdown.
  Gate gate;
  gate.Open();
  GatedEngine engine(&gate);
  Server server(&engine, ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  MustConnect(server).reset();  // one-time allocations before the baseline

  const int64_t before = VmSizeKib();
  for (int i = 0; i < 200; ++i) MustConnect(server).reset();
  EXPECT_LT(VmSizeKib() - before, 512 * 1024)
      << "VmSize grew by " << (VmSizeKib() - before) / 1024 << " MiB";
  EXPECT_EQ(server.metrics()->GetCounter("server.connections")->Value(),
            201u);
  server.Shutdown();
}

TEST(ServerTest, StartRejectsBadBindAddress) {
  Fixture f = MakeFixture(/*num_queries=*/1);
  PartitionedSearch engine(&f.collection, &f.index);
  ServerOptions options;
  options.bind_address = "not-an-address";
  Server server(&engine, options);
  Status s = server.Start();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

}  // namespace
}  // namespace cafe::server
