// cafe_serve — long-running query server over a prebuilt index.
//
//   cafe_serve --collection db.col --index db.idx
//       [--host 127.0.0.1] [--port 0] [--port-file FILE]
//       [--workers N] [--queue N] [--search-threads N]
//       [--chain off|filter] [--min-chain N]
//       [--index-mode memory|mmap]
//       [--http-port N] [--http-port-file FILE]
//       [--slow-ms N] [--flight-capacity N] [--slow-capacity N]
//       [--span-sample-rate RATE] [--stats-interval SECONDS]
//   cafe_serve --version
//
// --index-mode picks where the postings live: memory (blob copied to
// the heap, the default) or mmap (decoded in place from a read-only
// mapping; the heap holds only the directory). Opening a mapped index
// reads the whole file once to verify its CRC; after that the kernel
// may evict its pages under memory pressure and fault them back in on
// use.
//
// Speaks the length-prefixed binary protocol in src/server/protocol.h;
// cafe_loadgen and the Client library are the reference peers. With
// --port 0 the kernel picks the port; --port-file writes the resolved
// port for scripts to discover. SIGINT/SIGTERM trigger a graceful
// drain: in-flight requests complete, then the process exits 0.
//
// --http-port (>= 0; 0 = ephemeral) additionally starts the live
// introspection listener: /metrics (Prometheus text exposition),
// /statusz (JSON status), /flightz and /slowz (flight recorder / slow
// log as JSON), /tracez (span timelines as Chrome trace-event JSON).
// --slow-ms sets the slow-log pin threshold (0 pins every request).
// --span-sample-rate R records a span timeline for fraction R of
// requests (0 = only requests whose trace id is pinned in the slow
// log; 1 = all). --stats-interval N > 0 starts a stats thread that
// logs one windowed-delta line every N seconds.
//
// Operational messages go through obs::Log (timestamped, severity,
// trace-id aware); only usage/--version output and the port files are
// raw writes.
//
// Exit status 0 on clean shutdown, 1 on any startup error.

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "collection/collection.h"
#include "index/index_reader.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/span.h"
#include "search/partitioned.h"
#include "server/http.h"
#include "server/server.h"
#include "util/flags.h"
#include "util/simd.h"
#include "util/timer.h"
#include "util/version.h"

namespace cafe {
namespace {

// Signal handlers may only touch lock-free state; the main thread polls
// this flag from its pause() loop and runs the actual shutdown.
volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int /*signum*/) { g_stop = 1; }

int Fail(const Status& status) {
  obs::LogError(status.ToString());
  return 1;
}

int Usage() {
  // NOLINTNEXTLINE(cafe-no-raw-fprintf) — usage text, not a log line.
  std::fprintf(
      stderr,
      "usage: cafe_serve --collection FILE --index FILE\n"
      "           [--host ADDR] [--port N] [--port-file FILE]\n"
      "           [--workers N] [--queue N] [--search-threads N]\n"
      "           [--chain off|filter] [--min-chain N]\n"
      "           [--index-mode memory|mmap]\n"
      "           [--http-port N] [--http-port-file FILE]\n"
      "           [--slow-ms N] [--flight-capacity N] [--slow-capacity N]\n"
      "           [--span-sample-rate RATE] [--stats-interval SECONDS]\n"
      "       cafe_serve --version\n");
  return 1;
}

Status WritePortFile(const std::string& path, uint16_t port) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot write port file " + path);
  }
  // NOLINTNEXTLINE(cafe-no-raw-fprintf) — data file, not a log line.
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  return Status::OK();
}

std::string StatuszJson(const server::Server& server,
                        const server::HttpServer& http,
                        const obs::FlightRecorder& flight,
                        const WallTimer& uptime, uint32_t sequences,
                        const std::string& engine_name,
                        IndexMode index_mode, double span_sample_rate) {
  char buf[320];
  std::string out = "{\"version\":\"";
  out += obs::JsonEscape(kVersionString);
  out += "\",\"engine\":\"";
  out += obs::JsonEscape(engine_name);
  out += "\"";
  // What this binary is actually running — build version above, SIMD
  // tier, index read path and sampling rate here — so an operator
  // never has to cross-reference startup logs.
  out += ",\"simd\":\"";
  out += obs::JsonEscape(SimdLevelName(ActiveSimdLevel()));
  out += "\",\"index_mode\":\"";
  out += obs::JsonEscape(IndexModeName(index_mode));
  out += "\"";
  std::snprintf(buf, sizeof(buf),
                ",\"span_sample_rate\":%g"
                ",\"protocol\":%u,\"uptime_seconds\":%" PRIu64
                ",\"sequences\":%u,\"port\":%u,\"http_port\":%u"
                ",\"queue_depth\":%zu,\"flight_recorded\":%" PRIu64
                ",\"slow_recorded\":%" PRIu64
                ",\"slow_threshold_micros\":%" PRIu64 "}",
                span_sample_rate,
                static_cast<unsigned>(server::kProtocolVersion),
                static_cast<uint64_t>(uptime.Micros() / 1000000), sequences,
                static_cast<unsigned>(server.port()),
                static_cast<unsigned>(http.port()), server.QueueDepth(),
                flight.recorded(), flight.slow_recorded(),
                flight.slow_threshold_micros());
  out += buf;
  return out;
}

// Extracts the 16-hex-digit trace id from a /tracez query string
// ("trace_id=00c0ffee…"); false when absent or malformed.
bool ParseTraceIdQuery(const std::string& query, uint64_t* trace_id) {
  const std::string key = "trace_id=";
  size_t pos = query.rfind(key, 0) == 0 ? key.size() : std::string::npos;
  if (pos == std::string::npos) return false;
  std::string value = query.substr(pos);
  const size_t amp = value.find('&');
  if (amp != std::string::npos) value.resize(amp);
  if (value.empty() || value.size() > 16) return false;
  uint64_t id = 0;
  for (char c : value) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    id = (id << 4) | static_cast<uint64_t>(digit);
  }
  *trace_id = id;
  return true;
}

// One windowed-delta log line: interval rates and interval latency
// percentiles, from MetricsRegistry::Delta over SnapshotData.
void LogStatsWindow(const obs::MetricsSnapshot& delta, uint64_t seconds) {
  auto counter = [&](const char* name) -> uint64_t {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second;
  };
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t count = 0;
  auto it = delta.histograms.find("server.request_micros");
  if (it != delta.histograms.end()) {
    count = it->second.count;
    p50 = it->second.ApproxPercentile(0.50);
    p99 = it->second.ApproxPercentile(0.99);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "stats window %" PRIu64 "s: requests=%" PRIu64
                " accepted=%" PRIu64 " rejected=%" PRIu64
                " deadline_exceeded=%" PRIu64 " http=%" PRIu64
                " p50_us=%" PRIu64 " p99_us=%" PRIu64,
                seconds, count, counter("server.requests_accepted"),
                counter("server.requests_rejected"),
                counter("server.deadline_exceeded"),
                counter("server.http_requests"), p50, p99);
  obs::LogInfo(buf);
}

Status Run(FlagParser& flags) {
  std::string col_path = flags.GetString("collection", "");
  std::string idx_path = flags.GetString("index", "");
  std::string port_file = flags.GetString("port-file", "");
  std::string http_port_file = flags.GetString("http-port-file", "");
  std::string index_mode_flag = flags.GetString("index-mode", "memory");
  server::ServerOptions options;
  options.bind_address = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.dispatcher.workers =
      static_cast<uint32_t>(flags.GetInt("workers", 2));
  options.dispatcher.max_queue =
      static_cast<uint32_t>(flags.GetInt("queue", 256));
  options.dispatcher.search_threads =
      static_cast<uint32_t>(flags.GetInt("search-threads", 1));
  std::string chain_flag = flags.GetString("chain", "off");
  options.dispatcher.min_chain_score =
      static_cast<uint32_t>(flags.GetInt("min-chain", 2));
  int64_t http_port = flags.GetInt("http-port", -1);  // -1 = no listener
  obs::FlightRecorder::Options flight_options;
  flight_options.slow_micros =
      static_cast<uint64_t>(flags.GetInt("slow-ms", 250)) * 1000;
  flight_options.capacity =
      static_cast<size_t>(flags.GetInt("flight-capacity", 256));
  flight_options.slow_capacity =
      static_cast<size_t>(flags.GetInt("slow-capacity", 64));
  options.dispatcher.span_sample_rate =
      flags.GetDouble("span-sample-rate", 0.0);
  int64_t stats_interval = flags.GetInt("stats-interval", 0);
  CAFE_RETURN_IF_ERROR(flags.Finish());
  if (col_path.empty() || idx_path.empty()) {
    return Status::InvalidArgument("--collection and --index are required");
  }
  Result<ChainMode> chain_mode = ParseChainMode(chain_flag);
  if (!chain_mode.ok()) return chain_mode.status();
  options.dispatcher.chain_mode = *chain_mode;

  Result<SequenceCollection> col = SequenceCollection::Load(col_path);
  if (!col.ok()) return col.status();
  Result<IndexMode> parsed_mode = ParseIndexMode(index_mode_flag);
  if (!parsed_mode.ok()) return parsed_mode.status();
  const IndexMode index_mode = *parsed_mode;
  WallTimer open_timer;
  Result<IndexReader> reader = IndexReader::Open(idx_path, index_mode);
  if (!reader.ok()) return reader.status();
  obs::LogInfo(std::string("index open (") + IndexModeName(index_mode) +
               " mode): " + std::to_string(open_timer.Millis()) + " ms");
  CAFE_RETURN_IF_ERROR(CheckIndexMatchesCollection(*reader->source(), *col));
  PartitionedSearch engine(&*col, reader->source());

  WallTimer uptime;
  obs::FlightRecorder flight(flight_options);
  options.dispatcher.flight = &flight;
  obs::SpanStore span_store;
  options.dispatcher.span_store = &span_store;
  server::Server server(&engine, options);
  obs::MetricsRegistry* metrics = server.metrics();
  // The mapped index's open-time facts (mmap_index.*) join the server
  // registry so they surface on /metrics and the stats verb. Search
  // work reaches it through the dispatcher (search.*).
  reader->AttachMetrics(metrics);
  CAFE_RETURN_IF_ERROR(server.Start());
  server::HttpOptions http_options;
  http_options.bind_address = options.bind_address;
  http_options.port = static_cast<uint16_t>(http_port < 0 ? 0 : http_port);
  http_options.metrics = metrics;
  server::HttpServer http(
      [&](const std::string& path, const std::string& query_string) {
        server::HttpResponse response;
        if (path == "/metrics") {
          response.content_type =
              "text/plain; version=0.0.4; charset=utf-8";
          response.body = metrics->SnapshotPrometheus();
        } else if (path == "/statusz") {
          response.content_type = "application/json";
          response.body =
              StatuszJson(server, http, flight, uptime,
                          col->NumSequences(), engine.name(), index_mode,
                          options.dispatcher.span_sample_rate);
        } else if (path == "/flightz") {
          response.content_type = "application/json";
          response.body = flight.RecentJson(flight.capacity());
        } else if (path == "/slowz") {
          response.content_type = "application/json";
          response.body = flight.SlowJson(flight.capacity());
        } else if (path == "/tracez") {
          // ?trace_id=<16 hex> fetches one sampled timeline as Chrome
          // trace-event JSON; bare /tracez lists what the store holds.
          uint64_t trace_id = 0;
          if (query_string.empty()) {
            response.content_type = "application/json";
            response.body = span_store.ListJson();
          } else if (!ParseTraceIdQuery(query_string, &trace_id)) {
            response.status = 400;
            response.body = "expected ?trace_id=<hex id>\n";
          } else if (!span_store.GetJson(trace_id, &response.body)) {
            response.status = 404;
            response.body =
                "no sampled timeline for that trace id (not sampled, "
                "or evicted)\n";
          } else {
            response.content_type = "application/json";
          }
        } else if (path == "/") {
          response.body =
              "cafe_serve introspection\n"
              "/metrics  Prometheus text exposition\n"
              "/statusz  server status (JSON)\n"
              "/flightz  recent completed requests (JSON)\n"
              "/slowz    pinned slow requests (JSON)\n"
              "/tracez   sampled span timelines (Chrome trace JSON)\n";
        } else {
          response.status = 404;
          response.body = "unknown path " + path + "\n";
        }
        return response;
      },
      http_options);
  if (http_port >= 0) {
    CAFE_RETURN_IF_ERROR(http.Start());
    obs::LogInfo("introspection on http://" + options.bind_address + ":" +
                 std::to_string(http.port()) +
                 " (/metrics /statusz /flightz /slowz /tracez)");
    if (!http_port_file.empty()) {
      CAFE_RETURN_IF_ERROR(WritePortFile(http_port_file, http.port()));
    }
  }

  obs::LogInfo(std::string("cafe_serve ") + kVersionString +
               " listening on " + options.bind_address + ":" +
               std::to_string(server.port()) + " (" +
               std::to_string(col->NumSequences()) + " sequences)");
  if (!port_file.empty()) {
    CAFE_RETURN_IF_ERROR(WritePortFile(port_file, server.port()));
  }

  // Stats thread: every --stats-interval seconds, diff a fresh snapshot
  // against the previous one and log the window. The cv lets shutdown
  // interrupt the wait immediately.
  std::mutex stats_mu;
  std::condition_variable stats_cv;
  bool stats_stop = false;
  std::thread stats_thread;
  if (stats_interval > 0) {
    stats_thread = std::thread([&] {
      obs::MetricsSnapshot baseline = metrics->SnapshotData();
      std::unique_lock<std::mutex> lock(stats_mu);
      while (!stats_cv.wait_for(lock,
                                std::chrono::seconds(stats_interval),
                                [&] { return stats_stop; })) {
        obs::MetricsSnapshot current = metrics->SnapshotData();
        LogStatsWindow(obs::MetricsRegistry::Delta(current, baseline),
                       static_cast<uint64_t>(stats_interval));
        baseline = std::move(current);
      }
    });
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) pause();  // signals interrupt pause()

  obs::LogInfo("shutting down (draining in-flight requests)");
  if (stats_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      stats_stop = true;
    }
    stats_cv.notify_all();
    stats_thread.join();
  }
  http.Shutdown();
  server.Shutdown();
  return Status::OK();
}

}  // namespace
}  // namespace cafe

int main(int argc, char** argv) {
  using namespace cafe;
  if (argc >= 2 && std::string(argv[1]) == "--version") {
    // NOLINTNEXTLINE(cafe-no-raw-fprintf) — version query, not a log.
    std::printf("cafe_serve %s (protocol %u)\n", kVersionString,
                server::kProtocolVersion);
    return 0;
  }
  FlagParser flags(argc, argv);
  Status status = Run(flags);
  if (status.IsInvalidArgument()) {
    obs::LogError(status.ToString());
    return Usage();
  }
  return status.ok() ? 0 : Fail(status);
}
