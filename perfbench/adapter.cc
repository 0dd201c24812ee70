// Every call the benchmark makes into the cafe library. See adapter.h.

#include "adapter.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <string_view>

#include "align/smith_waterman.h"
#include "collection/collection.h"
#include "index/index_reader.h"
#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "search/chain.h"
#include "search/coarse.h"
#include "search/engine.h"
#include "search/partitioned.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sim/workload.h"
#include "util/simd.h"

namespace perfbench {
namespace {

bool IsServe(Workload workload) {
  return workload != Workload::kBatchHitcount;
}

// The one request shape every workload sends: top 10 of 100 fine
// candidates; diagonal coarse ranking with banded fine alignment on the
// serve workloads, hit-count ranking with whole-sequence alignment on
// batch_hitcount.
cafe::server::SearchRequest RequestFor(Workload workload) {
  cafe::server::SearchRequest request;
  request.max_results = 10;
  request.fine_candidates = 100;
  request.diagonal_mode = IsServe(workload);
  return request;
}

// Server-side chain filter of serve_chained; min chain 8 is the value
// bench_e4 gates.
constexpr uint32_t kMinChainScore = 8;

// Engine options exactly as the dispatcher derives them from a request,
// so direct reference searches and served searches are comparable.
cafe::SearchOptions OptionsFor(Workload workload) {
  cafe::SearchOptions options = RequestFor(workload).ToSearchOptions();
  options.threads = 1;
  if (workload == Workload::kServeChained) {
    options.chain_mode = cafe::ChainMode::kFilter;
    options.min_chain_score = kMinChainScore;
  }
  return options;
}

Hits ToHits(const std::vector<cafe::SearchHit>& hits) {
  Hits out;
  out.reserve(hits.size());
  for (const cafe::SearchHit& h : hits) {
    out.push_back(Hit{h.seq_id, h.score, h.strand == cafe::Strand::kReverse});
  }
  return out;
}

// Times every engine call it forwards; the Server and BatchSearch see
// it as their engine.
class TimedEngine final : public cafe::SearchEngine {
 public:
  explicit TimedEngine(cafe::SearchEngine* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  bool SupportsConcurrentSearch() const override {
    return inner_->SupportsConcurrentSearch();
  }

  cafe::Result<cafe::SearchResult> Search(
      std::string_view query, const cafe::SearchOptions& options) override {
    const uint64_t begin = NowNs();
    cafe::Result<cafe::SearchResult> result = inner_->Search(query, options);
    const uint64_t end = NowNs();
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back(EngineSample{begin, end});
    }
    if (SpanLog* spans = spans_.load(std::memory_order_acquire)) {
      spans->Add("search", 0, begin, end);
    }
    return result;
  }

  std::vector<EngineSample> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<EngineSample> out;
    out.swap(samples_);
    return out;
  }

  void set_spans(SpanLog* spans) {
    spans_.store(spans, std::memory_order_release);
  }

 private:
  cafe::SearchEngine* const inner_;
  std::mutex mu_;
  std::vector<EngineSample> samples_;
  std::atomic<SpanLog*> spans_{nullptr};
};

}  // namespace

uint64_t NowNs() { return cafe::obs::SpanRecorder::NowNanos(); }

std::string SimdTier() {
  return cafe::SimdLevelName(cafe::ActiveSimdLevel());
}

// --- SpanLog ----------------------------------------------------------

struct SpanLog::Impl {
  explicit Impl(size_t capacity) : recorder(/*trace_id=*/1, capacity) {}
  cafe::obs::SpanRecorder recorder;
};

SpanLog::SpanLog(size_t capacity) : impl_(std::make_unique<Impl>(capacity)) {}
SpanLog::~SpanLog() = default;

uint32_t SpanLog::Add(const char* name, uint32_t parent, uint64_t begin_ns,
                      uint64_t end_ns) {
  return impl_->recorder.AddSpan(name, parent, cafe::obs::DenseThreadId(),
                                 begin_ns, end_ns);
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << impl_->recorder.ChromeTraceJson();
  out.close();
  return static_cast<bool>(out);
}

// --- Corpus -------------------------------------------------------------

struct Corpus::Impl {
  cafe::SequenceCollection collection;
};

Corpus::Corpus() = default;
Corpus::~Corpus() = default;

std::unique_ptr<Corpus> Corpus::Generate(uint64_t seed,
                                         uint64_t background_bases,
                                         uint32_t num_queries,
                                         std::string* error) {
  cafe::sim::CollectionOptions col;
  col.target_bases = background_bases;
  col.seed = seed;
  cafe::sim::WorkloadOptions wl;
  wl.num_queries = num_queries;
  wl.query_length = 400;
  wl.homologs_per_query = 5;
  wl.min_homolog_divergence = 0.05;
  wl.max_homolog_divergence = 0.30;
  wl.seed = seed ^ 0x9e3779b97f4a7c15ull;
  cafe::Result<cafe::sim::PlantedWorkload> planted =
      cafe::sim::BuildPlantedWorkload(col, wl);
  if (!planted.ok()) {
    *error = planted.status().ToString();
    return nullptr;
  }
  std::unique_ptr<Corpus> corpus(new Corpus());
  corpus->impl_ = std::make_unique<Impl>(
      Impl{std::move(planted->collection)});
  for (cafe::sim::PlantedQuery& q : planted->queries) {
    corpus->queries_.push_back(std::move(q.sequence));
    corpus->truth_.push_back(std::move(q.true_positives));
  }
  return corpus;
}

uint64_t Corpus::bases() const { return impl_->collection.TotalBases(); }

// --- Deployment -----------------------------------------------------------

struct Deployment::Impl {
  // Declaration order is teardown order reversed: the server stops
  // before the engines it calls, the engines go before the index.
  const cafe::SequenceCollection* collection = nullptr;
  std::string index_path;
  cafe::SearchOptions options;
  std::optional<cafe::IndexReader> reader;
  std::unique_ptr<cafe::PartitionedSearch> engine;
  std::unique_ptr<cafe::CoarseRanker> ranker;
  std::unique_ptr<TimedEngine> timed;
  std::unique_ptr<cafe::server::Server> server;
  // Replay state: one aligner reused for every query, unlike the
  // engine, which builds its aligners per call.
  cafe::Aligner aligner;
  cafe::Aligner scalar;
  std::optional<cafe::SeedExtractor> extractor;
};

Deployment::Deployment() : impl_(std::make_unique<Impl>()) {}

Deployment::~Deployment() {
  const std::string path = impl_->index_path;
  impl_.reset();
  if (!path.empty()) std::remove(path.c_str());
}

std::unique_ptr<Deployment> Deployment::Create(const Corpus& corpus,
                                               Workload workload,
                                               const std::string& index_path,
                                               SetupTimes* times,
                                               std::string* error) {
  std::unique_ptr<Deployment> d(new Deployment());
  Impl& im = *d->impl_;
  im.collection = &corpus.impl_->collection;
  im.options = OptionsFor(workload);
  im.scalar.set_simd_level(cafe::SimdLevel::kScalar);

  cafe::IndexOptions index_options;
  index_options.interval_length = 8;
  index_options.granularity = IsServe(workload)
                                  ? cafe::IndexGranularity::kPositional
                                  : cafe::IndexGranularity::kDocument;
  const uint64_t t0 = NowNs();
  uint64_t t1 = t0;
  {
    cafe::Result<cafe::InvertedIndex> built =
        cafe::IndexBuilder::Build(*im.collection, index_options);
    if (!built.ok()) {
      *error = "index build: " + built.status().ToString();
      return nullptr;
    }
    t1 = NowNs();
    times->index_bytes = built->SerializedBytes();
    im.index_path = index_path;
    cafe::Status saved = built->Save(index_path);
    if (!saved.ok()) {
      *error = "index save: " + saved.ToString();
      return nullptr;
    }
  }  // the built index is released here, inside the save step
  const uint64_t t2 = NowNs();
  cafe::Result<cafe::IndexReader> reader = cafe::IndexReader::Open(
      index_path, IsServe(workload) ? cafe::IndexMode::kMmap
                                    : cafe::IndexMode::kMemory);
  if (!reader.ok()) {
    *error = "index open: " + reader.status().ToString();
    return nullptr;
  }
  im.reader.emplace(std::move(*reader));
  const cafe::PostingSource* source = im.reader->source();
  im.engine = std::make_unique<cafe::PartitionedSearch>(im.collection, source);
  im.ranker = std::make_unique<cafe::CoarseRanker>(source);
  im.timed = std::make_unique<TimedEngine>(im.engine.get());
  cafe::Result<cafe::SeedExtractor> extractor = cafe::SeedExtractor::Create(
      source->options().interval_length, source->options().spaced_seed);
  if (!extractor.ok()) {
    *error = "seed extractor: " + extractor.status().ToString();
    return nullptr;
  }
  im.extractor.emplace(std::move(*extractor));
  const uint64_t t3 = NowNs();
  if (IsServe(workload)) {
    cafe::server::ServerOptions server_options;
    server_options.dispatcher.workers = 2;
    server_options.dispatcher.search_threads = 1;
    server_options.dispatcher.chain_mode = im.options.chain_mode;
    server_options.dispatcher.min_chain_score = im.options.min_chain_score;
    im.server = std::make_unique<cafe::server::Server>(im.timed.get(),
                                                       server_options);
    cafe::Status started = im.server->Start();
    if (!started.ok()) {
      *error = "server start: " + started.ToString();
      return nullptr;
    }
  }
  const uint64_t t4 = NowNs();
  times->build_s = (t1 - t0) * 1e-9;
  times->save_s = (t2 - t1) * 1e-9;
  times->open_s = (t3 - t2) * 1e-9;
  times->start_s = (t4 - t3) * 1e-9;
  return d;
}

uint16_t Deployment::port() const {
  return impl_->server != nullptr ? impl_->server->port() : 0;
}

bool Deployment::ReferenceSearch(const std::string& query, Hits* hits,
                                 std::string* error) {
  cafe::Result<cafe::SearchResult> result =
      impl_->engine->Search(query, impl_->options);
  if (!result.ok()) {
    *error = result.status().ToString();
    return false;
  }
  *hits = ToHits(result->hits);
  return true;
}

bool Deployment::RescoreMatches(const std::string& query, const Hits& hits) {
  const Impl& im = *impl_;
  // The fine phase scored each candidate on the diagonal its coarse
  // ranking found; rank again to recover it.
  std::vector<cafe::CoarseCandidate> candidates = im.ranker->Rank(
      query, im.options.coarse_mode, im.options.fine_candidates,
      im.options.frame_width, nullptr);
  std::string seq;
  for (const Hit& hit : hits) {
    auto cand = std::find_if(
        candidates.begin(), candidates.end(),
        [&](const cafe::CoarseCandidate& c) { return c.doc == hit.seq_id; });
    if (cand == candidates.end()) return false;
    if (!im.collection->GetSequence(hit.seq_id, &seq).ok()) return false;
    const int score =
        cand->has_diagonal
            ? im.scalar.BandedScore(query, seq, cand->diagonal,
                                    im.options.band)
            : im.scalar.ScoreOnly(query, seq);
    if (score != hit.score) return false;
  }
  return true;
}

bool Deployment::BatchSearch(const std::vector<std::string>& queries,
                             uint32_t threads, std::vector<Hits>* out,
                             std::string* error) {
  cafe::SearchOptions options = impl_->options;
  options.threads = threads;
  cafe::Result<std::vector<cafe::SearchResult>> results =
      impl_->timed->BatchSearch(queries, options);
  if (!results.ok()) {
    *error = results.status().ToString();
    return false;
  }
  out->clear();
  for (const cafe::SearchResult& r : *results) {
    out->push_back(r.truncated ? Hits{} : ToHits(r.hits));
  }
  return true;
}

std::vector<EngineSample> Deployment::TakeEngineSamples() {
  return impl_->timed->Take();
}

void Deployment::set_spans(SpanLog* spans) { impl_->timed->set_spans(spans); }

StageRecord Deployment::Replay(const std::string& query, const Hits& expected,
                               SpanLog* spans) {
  Impl& im = *impl_;
  const cafe::SearchOptions& options = im.options;
  const cafe::PostingSource* source = im.reader->source();
  StageRecord rec;

  const uint64_t e0 = NowNs();
  cafe::Result<cafe::SearchResult> engine = im.engine->Search(query, options);
  const uint64_t e1 = NowNs();
  rec.engine_ns = e1 - e0;
  const Hits engine_hits = engine.ok() ? ToHits(engine->hits) : Hits{};

  // Decode-only pass over the query's distinct terms.
  std::vector<uint32_t> terms;
  im.extractor->ForEach(query, /*stride=*/1,
                        [&](uint32_t, uint32_t term) { terms.push_back(term); });
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  for (uint32_t term : terms) {
    if (source->FindTerm(term) != nullptr) ++rec.lists;
  }
  uint64_t postings = 0;
  const cafe::PostingCallback count =
      [&postings](uint32_t, uint32_t, const uint32_t*, uint32_t) {
        ++postings;
      };
  const uint64_t d0 = NowNs();
  for (uint32_t term : terms) source->ScanPostings(term, count);
  rec.decode_ns = NowNs() - d0;
  rec.postings = postings;

  cafe::obs::SearchTrace trace;
  const uint64_t r0 = NowNs();
  std::vector<cafe::CoarseCandidate> candidates =
      im.ranker->Rank(query, options.coarse_mode, options.fine_candidates,
                      options.frame_width, nullptr, &trace);
  const uint64_t r1 = NowNs();
  rec.rank_ns = r1 - r0;
  rec.ranked = trace.candidates_ranked;
  rec.chain_in = candidates.size();

  cafe::ChainOutcome chained = cafe::ChainCandidates(
      query, std::move(candidates), *source, options, nullptr);
  rec.chain_ns = NowNs() - r1;
  rec.chain_kept = chained.kept.size();

  im.aligner.ResetCellCount();
  std::vector<cafe::SearchHit> scored;
  std::string seq;
  bool fetched = true;
  for (const cafe::CoarseCandidate& c : chained.kept) {
    const uint64_t f0 = NowNs();
    fetched = fetched && im.collection->GetSequence(c.doc, &seq).ok();
    const uint64_t f1 = NowNs();
    const int score =
        c.has_diagonal
            ? im.aligner.BandedScore(query, seq, c.diagonal, options.band)
            : im.aligner.ScoreOnly(query, seq);
    rec.fine_ns += NowNs() - f1;
    rec.fetch_ns += f1 - f0;
    rec.bases_fetched += seq.size();
    if (score < options.min_score) continue;
    cafe::SearchHit hit;
    hit.seq_id = c.doc;
    hit.score = score;
    hit.coarse_score = c.score;
    scored.push_back(std::move(hit));
  }
  rec.cells = im.aligner.cells_computed();

  const uint64_t p0 = NowNs();
  cafe::TopHits top(options.max_results);
  for (cafe::SearchHit& hit : scored) top.Add(std::move(hit));
  const std::vector<cafe::SearchHit> replayed = top.Take();
  rec.post_ns = NowNs() - p0;
  rec.reported = replayed.size();

  rec.match = engine.ok() && fetched && ToHits(replayed) == engine_hits &&
              engine_hits == expected;

  if (spans != nullptr) {
    // Measured stage durations laid end to end from the engine call's
    // start: the search span's self time is then the residual.
    const uint32_t root = spans->Add("search", 0, e0, e1);
    uint64_t t = e0;
    const uint32_t coarse = spans->Add("coarse.rank", root, t, t + rec.rank_ns);
    spans->Add("index.postings", coarse, t, t + rec.decode_ns);
    t += rec.rank_ns;
    spans->Add("chain.filter", root, t, t + rec.chain_ns);
    t += rec.chain_ns;
    spans->Add("fine.align", root, t, t + rec.fetch_ns + rec.fine_ns);
    t += rec.fetch_ns + rec.fine_ns;
    spans->Add("post.process", root, t, t + rec.post_ns);
  }
  return rec;
}

// --- Connection -----------------------------------------------------------

struct Connection::Impl {
  std::unique_ptr<cafe::server::Client> client;
  cafe::server::SearchRequest request = RequestFor(Workload::kServeDefault);
};

Connection::Connection() : impl_(std::make_unique<Impl>()) {}
Connection::~Connection() = default;

std::unique_ptr<Connection> Connection::Open(uint16_t port,
                                             std::string* error) {
  cafe::Result<std::unique_ptr<cafe::server::Client>> client =
      cafe::server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    *error = client.status().ToString();
    return nullptr;
  }
  std::unique_ptr<Connection> conn(new Connection());
  conn->impl_->client = std::move(*client);
  return conn;
}

bool Connection::Search(const std::string& query, Hits* hits) {
  impl_->request.query = query;
  impl_->request.trace_id = 0;
  cafe::server::SearchResponse response;
  if (!impl_->client->Search(impl_->request, &response).ok() ||
      !response.status.ok() || response.truncated) {
    return false;
  }
  *hits = ToHits(response.hits);
  return true;
}

bool CodecRoundTrip(const std::string& query, const Hits& hits) {
  cafe::server::SearchRequest request = RequestFor(Workload::kServeDefault);
  request.query = query;
  cafe::server::SearchRequest request_back;
  if (!cafe::server::DecodeSearchRequest(
           cafe::server::EncodeSearchRequest(request), &request_back)
           .ok() ||
      request_back.query != query) {
    return false;
  }
  cafe::server::SearchResponse response;
  for (const Hit& h : hits) {
    cafe::SearchHit hit;
    hit.seq_id = h.seq_id;
    hit.score = h.score;
    hit.strand = h.reverse ? cafe::Strand::kReverse : cafe::Strand::kForward;
    response.hits.push_back(hit);
  }
  cafe::server::SearchResponse response_back;
  return cafe::server::DecodeSearchResponse(
             cafe::server::EncodeSearchResponse(response), &response_back)
             .ok() &&
         ToHits(response_back.hits) == hits;
}

}  // namespace perfbench
