// perfbench: the repository benchmark. README.md gives the workloads,
// the metrics and why each exists.
//
//   perfbench --workload serve_default|serve_chained|batch_hitcount
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--megabases 4] [--queries 64] [--setups 5]
//             [--perturb-reference]
//
// One run generates the seeded input, sets the workload up --setups
// times (the last set-up is kept), sends every query through a direct
// reference search that doubles as the warm-up, then drives the
// workload for --seconds and checks every answer against the reference.
// --trace 0 reports the end-to-end metrics. --trace 1 splits the time
// into untraced and traced quarters, replays every query stage by stage
// and reports the per-layer metrics, writing the spans as Chrome trace
// JSON into DIR.
//
// Output: a readable report, one {"annotations": ...} line, and as the
// last line {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapter.h"

namespace perfbench {
namespace {

struct Flags {
  std::string workload_name;
  Workload workload = Workload::kServeDefault;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  double megabases = 4.0;
  uint32_t queries = 64;
  uint32_t setups = 5;
  bool perturb_reference = false;
};

bool ParseFlags(int argc, char** argv, Flags* f, std::string* error) {
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reference") {
      f->perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      f->workload_name = value;
      have[0] = true;
    } else if (flag == "--seed") {
      f->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0';
    } else if (flag == "--seconds") {
      f->seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && f->seconds > 0;
    } else if (flag == "--trace") {
      f->trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      f->work_dir = value;
      have[4] = !value.empty();
    } else if (flag == "--megabases") {
      f->megabases = std::strtod(value.c_str(), &end);
      if (*end != '\0' || f->megabases <= 0) {
        *error = "bad --megabases";
        return false;
      }
    } else if (flag == "--queries") {
      f->queries = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 10));
      if (*end != '\0' || f->queries == 0) {
        *error = "bad --queries";
        return false;
      }
    } else if (flag == "--setups") {
      f->setups = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 10));
      if (*end != '\0' || f->setups == 0) {
        *error = "bad --setups";
        return false;
      }
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  static const char* const kRequired[] = {"--workload", "--seed", "--seconds",
                                          "--trace", "--work-dir"};
  for (int k = 0; k < 5; ++k) {
    if (!have[k]) {
      *error = std::string("missing or bad ") + kRequired[k];
      return false;
    }
  }
  if (f->workload_name == "serve_default") {
    f->workload = Workload::kServeDefault;
  } else if (f->workload_name == "serve_chained") {
    f->workload = Workload::kServeChained;
  } else if (f->workload_name == "batch_hitcount") {
    f->workload = Workload::kBatchHitcount;
  } else {
    *error = "unknown workload " + f->workload_name;
    return false;
  }
  return true;
}

// --- Host facts -------------------------------------------------------

struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal.
CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  for (int field = 0; field < 8 && label == "cpu"; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double ResidentMiB() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t from = line.find_first_not_of(' ', colon + 1);
        return from == std::string::npos ? "" : line.substr(from);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

// --- Statistics -----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Exact nearest-rank percentile of the raw samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// --- Measured phases --------------------------------------------------------

// Untimed lead-in of the serve loop, so the standing queue has formed
// before the window opens.
constexpr uint64_t kServeWarmupNs = 1'000'000'000;
// Busy engine threads in every workload: dispatcher workers or
// BatchSearch threads.
constexpr uint32_t kEngineThreads = 2;

// Sums over one or more measured windows; Merge adds windows together.
struct Phase {
  double seconds = 0.0;            // measured window
  uint64_t attempted = 0;          // requests (or batched queries) in it
  uint64_t ok = 0;                 // answered and equal to the reference
  uint64_t mismatched = 0;         // answered but different, whole phase
  std::vector<double> latency_ms;  // window samples; failures are +inf
  double rtt_ms = 0.0;    // client-observed latency summed over rtt_n
  uint64_t rtt_n = 0;
  double engine_ms = 0.0;  // engine calls ending in the window
  uint64_t engine_n = 0;
  double busy_ms = 0.0;    // engine time inside the window
  CpuTimes cpu;            // /proc/stat deltas over the window
  double rss_mb = 0.0;     // at the end of the window
  uint32_t clients = 0;

  void Merge(const Phase& p) {
    seconds += p.seconds;
    attempted += p.attempted;
    ok += p.ok;
    mismatched += p.mismatched;
    latency_ms.insert(latency_ms.end(), p.latency_ms.begin(),
                      p.latency_ms.end());
    rtt_ms += p.rtt_ms;
    rtt_n += p.rtt_n;
    engine_ms += p.engine_ms;
    engine_n += p.engine_n;
    busy_ms += p.busy_ms;
    cpu.steal += p.cpu.steal;
    cpu.total += p.cpu.total;
    rss_mb = p.rss_mb;
    clients = p.clients;
  }

  double qps() const { return seconds > 0 ? ok / seconds : 0.0; }
  // Latency not spent in the engine: queue, coalescing, protocol and
  // loopback when served; waiting for a pool thread when batched.
  double wait_ms() const {
    return rtt_n == 0 || engine_n == 0
               ? 0.0
               : rtt_ms / rtt_n - engine_ms / engine_n;
  }
  double busy_frac() const {
    return seconds > 0 ? busy_ms * 1e-3 / (kEngineThreads * seconds) : 0.0;
  }
  double steal_frac() const {
    return cpu.total == 0 ? 0.0 : static_cast<double>(cpu.steal) / cpu.total;
  }

  // Adds the engine calls that ended inside [start, stop].
  void AddEngine(const std::vector<EngineSample>& samples, uint64_t start,
                 uint64_t stop) {
    for (const EngineSample& s : samples) {
      if (s.end_ns < start || s.end_ns > stop) continue;
      engine_ms += (s.end_ns - s.begin_ns) * 1e-6;
      ++engine_n;
      busy_ms += (s.end_ns - std::max(s.begin_ns, start)) * 1e-6;
    }
  }

  void SetHost(const CpuTimes& before, const CpuTimes& after) {
    cpu.steal = after.steal - before.steal;
    cpu.total = after.total - before.total;
    rss_mb = ResidentMiB();
  }
};

// Closed loop: each client sends its next request when the previous one
// returns, so with more clients than dispatcher workers a queue stands.
bool RunServe(Deployment& dep, const Corpus& corpus,
              const std::vector<Hits>& reference, double seconds,
              SpanLog* spans, Phase* out, std::string* error) {
  const uint32_t clients =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::unique_ptr<Connection>> conns;
  for (uint32_t c = 0; c < clients; ++c) {
    conns.push_back(Connection::Open(dep.port(), error));
    if (conns.back() == nullptr) return false;
  }
  struct Request {
    uint64_t begin_ns;
    uint64_t end_ns;
    bool ok;
  };
  const std::vector<std::string>& queries = corpus.queries();
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Request>> logs(clients);
  std::vector<uint64_t> mismatched(clients, 0);

  dep.TakeEngineSamples();
  const CpuTimes cpu0 = ReadCpuTimes();
  const uint64_t start = NowNs() + kServeWarmupNs;
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Hits hits;
      for (;;) {
        const uint64_t begin = NowNs();
        if (begin >= stop) break;
        const size_t i = next.fetch_add(1) % queries.size();
        const bool answered = conns[c]->Search(queries[i], &hits);
        const uint64_t end = NowNs();
        const bool same = answered && hits == reference[i];
        if (answered && !same) ++mismatched[c];
        logs[c].push_back(Request{begin, end, same});
        if (spans != nullptr) spans->Add("request", 0, begin, end);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out->SetHost(cpu0, ReadCpuTimes());
  out->seconds = seconds;
  out->clients = clients;
  for (uint32_t c = 0; c < clients; ++c) {
    out->mismatched += mismatched[c];
    for (const Request& r : logs[c]) {
      if (r.end_ns < start || r.end_ns > stop) continue;
      ++out->attempted;
      const double ms = (r.end_ns - r.begin_ns) * 1e-6;
      if (r.ok) {
        ++out->ok;
        out->rtt_ms += ms;
        ++out->rtt_n;
      }
      out->latency_ms.push_back(
          r.ok ? ms : std::numeric_limits<double>::infinity());
    }
  }
  out->AddEngine(dep.TakeEngineSamples(), start, stop);
  return true;
}

// Repeated BatchSearch over every query until the time is up. A query's
// latency is its engine call; its round trip runs from the start of its
// batch to the end of its engine call.
bool RunBatch(Deployment& dep, const Corpus& corpus,
              const std::vector<Hits>& reference, double seconds,
              Phase* out, std::string* error) {
  const std::vector<std::string>& queries = corpus.queries();
  dep.TakeEngineSamples();
  const CpuTimes cpu0 = ReadCpuTimes();
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<Hits> results;
  while (NowNs() < stop) {
    const uint64_t batch_begin = NowNs();
    if (!dep.BatchSearch(queries, kEngineThreads, &results, error)) {
      return false;
    }
    const std::vector<EngineSample> samples = dep.TakeEngineSamples();
    for (const EngineSample& s : samples) {
      out->latency_ms.push_back((s.end_ns - s.begin_ns) * 1e-6);
      out->rtt_ms += (s.end_ns - batch_begin) * 1e-6;
      ++out->rtt_n;
    }
    out->AddEngine(samples, batch_begin, NowNs());
    for (size_t i = 0; i < queries.size(); ++i) {
      ++out->attempted;
      if (results[i] == reference[i]) {
        ++out->ok;
      } else if (!results[i].empty()) {
        ++out->mismatched;
      }
    }
  }
  out->seconds = (NowNs() - start) * 1e-9;
  out->SetHost(cpu0, ReadCpuTimes());
  out->clients = 1;
  return true;
}

bool RunPhase(const Flags& flags, Deployment& dep, const Corpus& corpus,
              const std::vector<Hits>& reference, double seconds,
              SpanLog* spans, Phase* out, std::string* error) {
  dep.set_spans(spans);
  Phase phase;
  const bool ok =
      flags.workload == Workload::kBatchHitcount
          ? RunBatch(dep, corpus, reference, seconds, &phase, error)
          : RunServe(dep, corpus, reference, seconds, spans, &phase, error);
  dep.set_spans(nullptr);
  out->Merge(phase);
  return ok;
}

// --- Output -------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void Report(const std::vector<Metric>& metrics, bool correct,
            uint64_t attempted, uint64_t failed,
            const std::string& annotations) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16.6f %s\n", m.name, m.value, m.unit);
  }
  std::printf("{\"annotations\": %s}\n", annotations.c_str());
  std::string doc = "{\"correct\": ";
  doc += correct ? "true" : "false";
  doc += ", \"attempted\": " + std::to_string(attempted);
  doc += ", \"failed\": " + std::to_string(failed);
  doc += ", \"metrics\": {";
  char buf[160];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                  metrics[i].unit);
    doc += buf;
  }
  doc += "}}";
  std::printf("%s\n", doc.c_str());
  std::fflush(stdout);
}

// Everything set-up and the reference pass leave for the measured part.
struct Prepared {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<Deployment> dep;
  std::vector<SetupTimes> setups;
  std::vector<Hits> reference;
  double recall = 0.0;
  uint64_t rescore_failures = 0;
};

struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::ostringstream notes;  // annotation fields, comma-led
};

bool Prepare(const Flags& flags, Prepared* p, std::string* error) {
  const uint64_t t0 = NowNs();
  p->corpus = Corpus::Generate(flags.seed,
                               static_cast<uint64_t>(flags.megabases * 1e6),
                               flags.queries, error);
  if (p->corpus == nullptr) return false;
  const std::vector<std::string>& queries = p->corpus->queries();
  std::printf("workload %s seed %llu: %llu bases, %zu queries (%.1f s to "
              "generate)\n",
              flags.workload_name.c_str(),
              static_cast<unsigned long long>(flags.seed),
              static_cast<unsigned long long>(p->corpus->bases()),
              queries.size(), (NowNs() - t0) * 1e-9);

  // Set-up, repeated; each replaces the previous one.
  const std::string index_path = flags.work_dir + "/" + flags.workload_name +
                                 "." + std::to_string(getpid()) + ".idx";
  for (uint32_t k = 0; k < flags.setups; ++k) {
    p->dep.reset();
    SetupTimes times;
    p->dep = Deployment::Create(*p->corpus, flags.workload, index_path,
                                &times, error);
    if (p->dep == nullptr) return false;
    p->setups.push_back(times);
  }
  // Return the freed build structures to the OS so rss_mb sees only
  // what serving holds.
  malloc_trim(0);

  // Reference pass, which is also the warm-up: a direct sequential
  // search per query, each reported hit re-scored at the scalar tier.
  p->reference.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!p->dep->ReferenceSearch(queries[i], &p->reference[i], error)) {
      return false;
    }
    if (!p->dep->RescoreMatches(queries[i], p->reference[i])) {
      ++p->rescore_failures;
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<uint32_t> want = p->corpus->truth()[i];
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    size_t found = 0;
    for (size_t h = 0; h < p->reference[i].size() && h < 10; ++h) {
      found += std::binary_search(want.begin(), want.end(),
                                  p->reference[i][h].seq_id);
    }
    p->recall += want.empty() ? 1.0 : static_cast<double>(found) / want.size();
  }
  p->recall /= queries.size();
  if (flags.perturb_reference) {
    // Self-test hook: a reference that no correct answer can equal.
    if (p->reference[0].empty()) p->reference[0].push_back(Hit{});
    p->reference[0][0].score += 1;
  }
  return true;
}

bool MeasureEndToEnd(const Flags& flags, Prepared& p, RunResult* r,
                     std::string* error) {
  Phase phase;
  if (!RunPhase(flags, *p.dep, *p.corpus, p.reference, flags.seconds, nullptr,
                &phase, error)) {
    return false;
  }
  r->attempted = phase.attempted;
  r->failed = phase.attempted - phase.ok;
  r->correct = r->correct && phase.mismatched == 0 && r->failed == 0;
  // A failure is slower than every success: it sorts last, and a
  // percentile that lands on one reads as the whole window.
  std::vector<double> lat = phase.latency_ms;
  for (double& ms : lat) {
    if (std::isinf(ms)) ms = phase.seconds * 1e3;
  }
  std::vector<double> setup_s;
  for (const SetupTimes& t : p.setups) setup_s.push_back(t.total_s());
  const double attempted = static_cast<double>(std::max<uint64_t>(r->attempted, 1));
  r->metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"qps", phase.qps(), "queries/s"},
      {"p50_ms", Percentile(lat, 0.50), "ms"},
      {"p95_ms", Percentile(lat, 0.95), "ms"},
      {"recall_at_10", p.recall, "fraction"},
      {"index_bytes_per_base",
       static_cast<double>(p.setups.back().index_bytes) / p.corpus->bases(),
       "bytes/base"},
      {"rss_mb", phase.rss_mb, "MiB"},
      {"ok_frac", phase.ok / attempted, "fraction"},
  };
  const size_t n = lat.size();
  r->notes << ", \"fail_frac\": " << r->failed / attempted
           << ", \"latency_samples\": " << n << ", \"samples_beyond_p95\": "
           << n - std::min(n, static_cast<size_t>(std::ceil(0.95 * n)))
           << ", \"clients\": " << phase.clients
           << ", \"steal_frac\": " << phase.steal_frac()
           << ", \"window_s\": " << phase.seconds;
  return true;
}

bool MeasurePerLayer(const Flags& flags, Prepared& p, RunResult* r,
                     std::string* error) {
  const std::vector<std::string>& queries = p.corpus->queries();
  // Untraced, traced, traced, untraced quarters: a host whose speed
  // drifts linearly over the run biases neither half.
  Phase plain;
  Phase traced;
  SpanLog spans(1 << 16);
  for (SpanLog* log : {static_cast<SpanLog*>(nullptr), &spans, &spans,
                       static_cast<SpanLog*>(nullptr)}) {
    if (!RunPhase(flags, *p.dep, *p.corpus, p.reference, flags.seconds / 4,
                  log, log != nullptr ? &traced : &plain, error)) {
      return false;
    }
  }
  // Stage-by-stage replay of every query on this thread.
  StageRecord sum;
  uint64_t replay_mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const StageRecord rec = p.dep->Replay(queries[i], p.reference[i], &spans);
    if (!rec.match) ++replay_mismatches;
    sum += rec;
  }
  // Wire codecs, timed over every query and its reference answer.
  constexpr int kCodecRounds = 20;
  uint64_t codec_failures = 0;
  const uint64_t c0 = NowNs();
  for (int round = 0; round < kCodecRounds; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      codec_failures += !CodecRoundTrip(queries[i], p.reference[i]);
    }
  }
  const double codec_us =
      (NowNs() - c0) * 1e-3 / (kCodecRounds * queries.size());
  const std::string trace_path =
      flags.work_dir + "/trace_" + flags.workload_name + ".json";
  if (!spans.WriteChromeJson(trace_path)) {
    *error = "cannot write " + trace_path;
    return false;
  }

  std::vector<double> build_s;
  std::vector<double> save_ms;
  std::vector<double> open_ms;
  for (const SetupTimes& t : p.setups) {
    build_s.push_back(t.build_s);
    save_ms.push_back(t.save_s * 1e3);
    open_ms.push_back(t.open_s * 1e3);
  }
  const double nq = static_cast<double>(queries.size());
  auto ms = [nq](double ns) { return ns * 1e-6 / nq; };
  auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const double engine = ms(sum.engine_ns);
  const double residual =
      engine - ms(sum.rank_ns + sum.chain_ns + sum.fetch_ns + sum.fine_ns +
                  sum.post_ns);
  r->metrics = {
      {"server.wait_ms", traced.wait_ms(), "ms"},
      {"server.codec_us", codec_us, "us"},
      {"search.engine_ms", engine, "ms"},
      {"search.coarse_ms", ms(sum.rank_ns) - ms(sum.decode_ns), "ms"},
      {"search.chain_ms", ms(sum.chain_ns), "ms"},
      {"search.post_ms", ms(sum.post_ns), "ms"},
      {"search.residual_ms", residual, "ms"},
      {"search.chain_keep_frac", ratio(sum.chain_kept, sum.chain_in),
       "fraction"},
      {"search.candidates", sum.ranked / nq, "count"},
      {"search.fine_yield", ratio(sum.reported, sum.chain_kept), "fraction"},
      {"index.decode_ms", ms(sum.decode_ns), "ms"},
      {"index.postings", sum.postings / nq, "count"},
      {"index.lists", sum.lists / nq, "count"},
      {"index.mpostings_per_s", ratio(sum.postings, sum.decode_ns * 1e-3),
       "Mpostings/s"},
      {"index.build_s", Median(build_s), "s"},
      {"index.save_ms", Median(save_ms), "ms"},
      {"index.open_ms", Median(open_ms), "ms"},
      {"align.fine_ms", ms(sum.fine_ns), "ms"},
      {"align.mcells", sum.cells * 1e-6 / nq, "Mcells"},
      {"align.mcells_per_s", ratio(sum.cells, sum.fine_ns * 1e-3), "Mcells/s"},
      {"seqstore.fetch_ms", ms(sum.fetch_ns), "ms"},
      {"seqstore.mbases_per_s", ratio(sum.bases_fetched, sum.fetch_ns * 1e-3),
       "Mbases/s"},
      {"util.pool_busy_frac", traced.busy_frac(), "fraction"},
      {"trace_overhead_frac", ratio(plain.qps() - traced.qps(), plain.qps()),
       "fraction"},
  };
  r->attempted = plain.attempted + traced.attempted + queries.size();
  r->failed = (plain.attempted - plain.ok) + (traced.attempted - traced.ok) +
              replay_mismatches;
  r->correct = r->correct && plain.mismatched == 0 &&
               traced.mismatched == 0 && r->failed == 0 && codec_failures == 0;
  r->notes << ", \"replay_mismatches\": " << replay_mismatches
           << ", \"codec_failures\": " << codec_failures
           << ", \"residual_frac\": " << ratio(residual, engine)
           << ", \"untraced_qps\": " << plain.qps()
           << ", \"traced_qps\": " << traced.qps()
           << ", \"steal_frac\": " << traced.steal_frac()
           << ", \"trace_file\": " << JsonString(trace_path);
  return true;
}

int Run(const Flags& flags) {
  std::string error;
  Prepared p;
  if (!Prepare(flags, &p, &error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return 1;
  }
  RunResult r;
  r.correct = p.rescore_failures == 0;
  if (!(flags.trace ? MeasurePerLayer(flags, p, &r, &error)
                    : MeasureEndToEnd(flags, p, &r, &error))) {
    std::fprintf(stderr, "measured phase failed: %s\n", error.c_str());
    return 1;
  }
  p.dep.reset();

  std::ostringstream notes;
  notes << "{\"workload\": " << JsonString(flags.workload_name)
        << ", \"seed\": " << flags.seed
        << ", \"simd\": " << JsonString(SimdTier())
        << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency()
        << ", \"cpu_model\": " << JsonString(CpuModel())
        << ", \"collection_bases\": " << p.corpus->bases()
        << ", \"queries\": " << p.corpus->queries().size()
        << ", \"setups\": " << p.setups.size()
        << ", \"rescore_failures\": " << p.rescore_failures << r.notes.str()
        << "}";
  Report(r.metrics, r.correct, r.attempted, r.failed, notes.str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  std::string error;
  if (!perfbench::ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  return perfbench::Run(flags);
}
