// The benchmark's only window into the cafe library.
//
// Every call into src/ lives in adapter.cc. main.cc sees only the
// bench-owned types below, so when a library signature changes (the
// calls ROADMAP items 3 and 4 will touch are listed in README.md) the
// benchmark needs a one-file edit.
//
// Timing of library calls also lives here: a stage is timed where it is
// called, with the span recorder's steady clock (NowNs).

#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kServeDefault, kServeChained, kBatchHitcount };

/// The part of a hit the answer check compares.
struct Hit {
  uint32_t seq_id = 0;
  int score = 0;
  bool reverse = false;
  bool operator==(const Hit&) const = default;
};
using Hits = std::vector<Hit>;

/// Steady-clock nanoseconds, the timebase of every stamp below.
uint64_t NowNs();

/// SIMD tier the kernels dispatch on ("scalar", "sse2", "avx2").
std::string SimdTier();

/// Spans recorded from bench code into one obs::SpanRecorder and
/// written as Chrome trace JSON. Add is safe from any thread.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity);
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Records a finished span; `name` must be a string literal. Returns
  /// its id (0 when the log is full).
  uint32_t Add(const char* name, uint32_t parent, uint64_t begin_ns,
               uint64_t end_ns);
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A seeded planted-homologue input: a GenBank-like background plus
/// queries with planted homologues (sim::BuildPlantedWorkload).
class Corpus {
 public:
  static std::unique_ptr<Corpus> Generate(uint64_t seed,
                                          uint64_t background_bases,
                                          uint32_t num_queries,
                                          std::string* error);
  ~Corpus();
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  const std::vector<std::string>& queries() const { return queries_; }
  /// Collection ids holding each query's planted homologues.
  const std::vector<std::vector<uint32_t>>& truth() const { return truth_; }
  uint64_t bases() const;

 private:
  struct Impl;
  Corpus();

  std::unique_ptr<Impl> impl_;
  std::vector<std::string> queries_;
  std::vector<std::vector<uint32_t>> truth_;
  friend class Deployment;
};

/// Wall time of each set-up step.
struct SetupTimes {
  double build_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  double start_s = 0.0;
  uint64_t index_bytes = 0;

  double total_s() const { return build_s + save_s + open_s + start_s; }
};

/// One engine call seen by the timing decorator.
struct EngineSample {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

/// One query replayed stage by stage. Times are nanoseconds.
struct StageRecord {
  uint64_t engine_ns = 0;  // SearchEngine::Search, whole call
  uint64_t decode_ns = 0;  // decode-only ScanPostings pass
  uint64_t rank_ns = 0;    // CoarseRanker::Rank (includes its decode)
  uint64_t chain_ns = 0;   // ChainCandidates
  uint64_t fetch_ns = 0;   // SequenceCollection::GetSequence
  uint64_t fine_ns = 0;    // Aligner::BandedScore / ScoreOnly
  uint64_t post_ns = 0;    // top-k selection of the scored candidates
  uint64_t lists = 0;      // query terms with a postings list
  uint64_t postings = 0;
  uint64_t ranked = 0;     // sequences with coarse evidence
  uint64_t chain_in = 0;
  uint64_t chain_kept = 0;
  uint64_t reported = 0;
  uint64_t cells = 0;
  uint64_t bases_fetched = 0;
  /// Replayed hits equal the engine's, and the engine's equal `expected`.
  bool match = false;

  /// Sums every count and time; `match` is left alone.
  StageRecord& operator+=(const StageRecord& r) {
    engine_ns += r.engine_ns;
    decode_ns += r.decode_ns;
    rank_ns += r.rank_ns;
    chain_ns += r.chain_ns;
    fetch_ns += r.fetch_ns;
    fine_ns += r.fine_ns;
    post_ns += r.post_ns;
    lists += r.lists;
    postings += r.postings;
    ranked += r.ranked;
    chain_in += r.chain_in;
    chain_kept += r.chain_kept;
    reported += r.reported;
    cells += r.cells;
    bases_fetched += r.bases_fetched;
    return *this;
  }
};

/// One set-up of a workload: index built from the corpus, saved, opened
/// on the workload's read path, wrapped in the timing decorator and, for
/// the serve workloads, served by an in-process server on loopback.
class Deployment {
 public:
  static std::unique_ptr<Deployment> Create(const Corpus& corpus,
                                            Workload workload,
                                            const std::string& index_path,
                                            SetupTimes* times,
                                            std::string* error);
  ~Deployment();  // stops the server, unmaps and removes the index file
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Loopback port of the server; 0 for batch_hitcount.
  uint16_t port() const;

  /// Direct sequential SearchEngine::Search (threads 1, no server, no
  /// decorator): the reference every served or batched answer must equal.
  bool ReferenceSearch(const std::string& query, Hits* hits,
                       std::string* error);

  /// Re-scores every hit with a scalar-tier Aligner; false when any
  /// score differs.
  bool RescoreMatches(const std::string& query, const Hits& hits);

  /// SearchEngine::BatchSearch with `threads` workers, through the
  /// timing decorator.
  bool BatchSearch(const std::vector<std::string>& queries, uint32_t threads,
                   std::vector<Hits>* out, std::string* error);

  /// Engine calls the decorator timed since the last take.
  std::vector<EngineSample> TakeEngineSamples();

  /// When non-null, the decorator also records a "search" span per call.
  void set_spans(SpanLog* spans);

  /// Calls SearchEngine::Search, then each stage's entry point in turn,
  /// on this thread. When `spans` is non-null, records a "search" span
  /// over the engine call with the replayed stages laid end to end
  /// inside it, so the search span's self time is the residual.
  StageRecord Replay(const std::string& query, const Hits& expected,
                     SpanLog* spans);

 private:
  struct Impl;
  Deployment();
  std::unique_ptr<Impl> impl_;
};

/// One client connection (server::Client) sending the serve workloads'
/// request shape.
class Connection {
 public:
  static std::unique_ptr<Connection> Open(uint16_t port, std::string* error);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// False on a transport error, a server-side error (kOverloaded
  /// included) or a truncated answer.
  bool Search(const std::string& query, Hits* hits);

 private:
  struct Impl;
  Connection();
  std::unique_ptr<Impl> impl_;
};

/// Encodes and decodes one search request and one response carrying
/// `hits` with the wire codecs; false when a round trip changes them.
bool CodecRoundTrip(const std::string& query, const Hits& hits);

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
