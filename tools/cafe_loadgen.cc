// cafe_loadgen — load generator and latency reporter for cafe_serve.
//
//   cafe_loadgen --port N [--host 127.0.0.1]
//       (--query-file q.fa | [--queries N] [--query-bases N] [--seed N])
//       [--clients N] [--requests N] [--duration SECONDS]
//       [--rate PER_CLIENT_QPS]   (open loop; default closed loop)
//       [--deadline-ms N] [--top N] [--candidates N] [--both-strands]
//       [--stats-out FILE] [--slow-ms N] [--trace-ids N] [--http-port N]
//   cafe_loadgen --version
//
// Each client thread opens its own connection and cycles through the
// query set. Closed loop (default) sends the next request as soon as
// the previous response lands; --rate paces each client at a fixed
// request interval instead, so queueing at the server shows up as
// latency rather than as back-pressure. Reports throughput plus
// mean/p50/p90/p99/max end-to-end latency — exact nearest-rank
// percentiles over every response's latency, the rule perfbench uses —
// and the ok / overloaded / truncated / error split. --stats-out
// fetches the server's stats document (the --stats=json schema) after
// the run.
//
// --slow-ms N prints the latency histogram buckets and how many
// requests crossed the threshold; --trace-ids N prints the server-
// echoed trace ids of the N slowest requests (`trace=<16 hex>`, the
// same rendering as server log lines and /flightz), so a slow request
// seen from the client can be joined with the server's flight
// recorder / slow log entry for it. With --http-port (the server's
// introspection port), each slow trace id is printed alongside its
// /tracez URL — paste it into curl for the request's span timeline
// when the server sampled it (`sampled` in the response says so).
//
// Exit status 0 when every request got a response (overloaded and
// truncated count as responses), 1 otherwise.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"
#include "util/version.h"

namespace cafe {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

struct LoadOptions {
  std::string host;
  uint16_t port = 0;
  uint32_t clients = 4;
  uint64_t requests = 64;  // per client; 0 = until --duration
  double duration = 0.0;   // seconds; 0 = until --requests
  double rate = 0.0;       // per-client target qps; 0 = closed loop
  uint64_t slow_ms = 0;    // 0 = no slow/bucket report
  uint32_t trace_ids = 0;  // print ids of the N slowest; 0 = off
  uint16_t http_port = 0;  // server introspection port; 0 = no URLs
  server::SearchRequest request_template;
};

// One completed request as the client saw it. The latency percentiles,
// the --slow-ms report and the --trace-ids slowest-request report all
// read the same list.
struct Sample {
  uint64_t micros = 0;
  uint64_t trace_id = 0;
  bool sampled = false;  // server recorded a span timeline for it
};

struct ClientStats {
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t truncated = 0;
  uint64_t errors = 0;
  std::vector<Sample> samples;  // one per response
};

// Exact nearest-rank percentile of `sorted` (ascending by latency): the
// smallest sample with at least a fraction q of all samples at or below
// it. Matches perfbench's Percentile().
uint64_t NearestRankMicros(const std::vector<Sample>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1].micros;
}

// One client thread: own connection, own slice of the query set.
void RunClient(const LoadOptions& opt,
               const std::vector<std::string>& queries, uint32_t id,
               ClientStats* stats) {
  Result<std::unique_ptr<server::Client>> client =
      server::Client::Connect(opt.host, opt.port);
  if (!client.ok()) {
    std::fprintf(stderr, "client %u: %s\n", id,
                 client.status().ToString().c_str());
    stats->errors += 1;
    return;
  }

  WallTimer run_timer;
  const double interval = opt.rate > 0.0 ? 1.0 / opt.rate : 0.0;
  for (uint64_t i = 0; opt.requests == 0 || i < opt.requests; ++i) {
    if (opt.duration > 0.0 && run_timer.Seconds() >= opt.duration) break;
    if (interval > 0.0) {
      // Open loop: wait for this request's scheduled send time. Sleeping
      // keeps the pacing independent of how long responses take.
      double ahead = static_cast<double>(i) * interval - run_timer.Seconds();
      if (ahead > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(ahead));
      }
    }
    server::SearchRequest request = opt.request_template;
    request.query = queries[(id + i * opt.clients) % queries.size()];

    WallTimer timer;
    server::SearchResponse response;
    Status s = (*client)->Search(request, &response);
    const uint64_t micros = static_cast<uint64_t>(timer.Micros());
    if (s.ok()) {
      // Client::Search always leaves the travelled id in the response.
      stats->samples.push_back({micros, response.trace_id,
                                response.sampled});
    }
    if (!s.ok()) {
      stats->errors += 1;
      std::fprintf(stderr, "client %u: %s\n", id, s.ToString().c_str());
      return;  // transport failure poisons the connection
    }
    if (response.status.IsOverloaded()) {
      stats->overloaded += 1;
    } else if (!response.status.ok()) {
      stats->errors += 1;
    } else if (response.truncated) {
      stats->truncated += 1;
    } else {
      stats->ok += 1;
    }
  }
}

Status Run(FlagParser& flags) {
  LoadOptions opt;
  opt.host = flags.GetString("host", "127.0.0.1");
  opt.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  opt.clients = static_cast<uint32_t>(flags.GetInt("clients", 4));
  opt.requests = static_cast<uint64_t>(flags.GetInt("requests", 64));
  opt.duration = flags.GetDouble("duration", 0.0);
  opt.rate = flags.GetDouble("rate", 0.0);
  opt.slow_ms = static_cast<uint64_t>(flags.GetInt("slow-ms", 0));
  opt.trace_ids = static_cast<uint32_t>(flags.GetInt("trace-ids", 0));
  opt.http_port = static_cast<uint16_t>(flags.GetInt("http-port", 0));
  opt.request_template.deadline_millis =
      static_cast<uint64_t>(flags.GetInt("deadline-ms", 0));
  opt.request_template.max_results =
      static_cast<uint32_t>(flags.GetInt("top", 10));
  opt.request_template.fine_candidates =
      static_cast<uint32_t>(flags.GetInt("candidates", 100));
  opt.request_template.both_strands = flags.GetBool("both-strands");
  std::string query_file = flags.GetString("query-file", "");
  uint32_t num_queries = static_cast<uint32_t>(flags.GetInt("queries", 16));
  uint32_t query_bases =
      static_cast<uint32_t>(flags.GetInt("query-bases", 200));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  std::string stats_out = flags.GetString("stats-out", "");
  CAFE_RETURN_IF_ERROR(flags.Finish());
  if (opt.port == 0) return Status::InvalidArgument("--port is required");
  if (opt.clients == 0) {
    return Status::InvalidArgument("--clients must be >= 1");
  }
  if (opt.requests == 0 && opt.duration <= 0.0) {
    return Status::InvalidArgument(
        "one of --requests / --duration must be set");
  }

  std::vector<std::string> queries;
  if (!query_file.empty()) {
    std::vector<FastaRecord> records;
    CAFE_RETURN_IF_ERROR(ReadFastaFile(query_file, &records));
    for (FastaRecord& rec : records) {
      queries.push_back(std::move(rec.sequence));
    }
    if (queries.empty()) {
      return Status::InvalidArgument("no sequences in " + query_file);
    }
  } else {
    // Uniform random queries: they exercise the full coarse path (every
    // interval gets looked up) even if few reach a reportable score.
    Rng rng(seed);
    static const char kBases[] = "ACGT";
    for (uint32_t i = 0; i < num_queries; ++i) {
      std::string q;
      q.reserve(query_bases);
      for (uint32_t j = 0; j < query_bases; ++j) {
        q.push_back(kBases[rng.Uniform(4)]);
      }
      queries.push_back(std::move(q));
    }
  }

  std::vector<ClientStats> stats(opt.clients);
  std::vector<std::thread> threads;
  threads.reserve(opt.clients);
  WallTimer wall;
  for (uint32_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] { RunClient(opt, queries, c, &stats[c]); });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.Seconds();

  ClientStats total;
  for (const ClientStats& s : stats) {
    total.ok += s.ok;
    total.overloaded += s.overloaded;
    total.truncated += s.truncated;
    total.errors += s.errors;
    total.samples.insert(total.samples.end(), s.samples.begin(),
                         s.samples.end());
  }
  std::vector<Sample>& all = total.samples;
  std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
    return a.micros < b.micros;
  });
  double sum_micros = 0.0;
  for (const Sample& sample : all) sum_micros += sample.micros;
  const uint64_t responses = total.ok + total.overloaded + total.truncated;
  std::printf(
      "%llu responses in %.2fs (%.1f req/s, %u clients)\n"
      "  ok %llu, overloaded %llu, truncated %llu, errors %llu\n"
      "  latency mean %.2fms p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms\n",
      static_cast<unsigned long long>(responses), elapsed,
      elapsed > 0.0 ? static_cast<double>(responses) / elapsed : 0.0,
      opt.clients, static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.overloaded),
      static_cast<unsigned long long>(total.truncated),
      static_cast<unsigned long long>(total.errors),
      all.empty() ? 0.0 : sum_micros / static_cast<double>(all.size()) / 1e3,
      static_cast<double>(NearestRankMicros(all, 0.50)) / 1e3,
      static_cast<double>(NearestRankMicros(all, 0.90)) / 1e3,
      static_cast<double>(NearestRankMicros(all, 0.99)) / 1e3,
      static_cast<double>(NearestRankMicros(all, 1.0)) / 1e3);

  if (opt.slow_ms > 0) {
    obs::Histogram latency;
    uint64_t slow = 0;
    for (const Sample& sample : all) {
      latency.Record(sample.micros);
      if (sample.micros >= opt.slow_ms * 1000) slow += 1;
    }
    const obs::Histogram::Snapshot snap = latency.Snap();
    std::printf("  slow requests (>= %llums): %llu of %llu\n",
                static_cast<unsigned long long>(opt.slow_ms),
                static_cast<unsigned long long>(slow),
                static_cast<unsigned long long>(responses));
    std::printf("  latency buckets (us):\n");
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      if (snap.buckets[i] == 0) continue;
      // Bucket i of the bit-width histogram holds [2^(i-1), 2^i);
      // bucket 0 holds the exact value 0.
      const uint64_t lo = i == 0 ? 0 : 1ull << (i - 1);
      const uint64_t hi =
          i == 0 ? 0 : (i >= 64 ? UINT64_MAX : (1ull << i) - 1);
      std::printf("    [%llu, %llu] %llu\n",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(snap.buckets[i]));
    }
  }

  if (opt.trace_ids > 0) {
    const size_t n = std::min<size_t>(opt.trace_ids, all.size());
    std::printf("  slowest %llu requests:\n",
                static_cast<unsigned long long>(n));
    for (size_t i = 0; i < n; ++i) {
      const Sample& sample = all[all.size() - 1 - i];
      std::printf("    %.2fms trace=%016llx",
                  static_cast<double>(sample.micros) / 1e3,
                  static_cast<unsigned long long>(sample.trace_id));
      if (opt.http_port > 0) {
        // Link straight to the span timeline when the server kept one.
        if (sample.sampled) {
          std::printf(" http://%s:%u/tracez?trace_id=%016llx",
                      opt.host.c_str(), opt.http_port,
                      static_cast<unsigned long long>(sample.trace_id));
        } else {
          std::printf(" (not sampled)");
        }
      }
      std::printf("\n");
    }
  }

  if (!stats_out.empty()) {
    Result<std::unique_ptr<server::Client>> client =
        server::Client::Connect(opt.host, opt.port);
    if (!client.ok()) return client.status();
    std::string json;
    CAFE_RETURN_IF_ERROR((*client)->Stats(&json));
    FILE* f = std::fopen(stats_out.c_str(), "w");
    if (f == nullptr) {
      return Status::IOError("cannot write --stats-out " + stats_out);
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }

  if (total.errors > 0) return Status::Internal("some requests failed");
  return Status::OK();
}

}  // namespace
}  // namespace cafe

int main(int argc, char** argv) {
  using namespace cafe;
  if (argc >= 2 && std::string(argv[1]) == "--version") {
    std::printf("cafe_loadgen %s (protocol %u)\n", kVersionString,
                server::kProtocolVersion);
    return 0;
  }
  FlagParser flags(argc, argv);
  Status status = Run(flags);
  return status.ok() ? 0 : Fail(status);
}
