#include "server/dispatcher.h"

#include <algorithm>

namespace cafe::server {
namespace {

// OptionsKey() is packed binary; the flight recorder wants something an
// operator can read and compare across records.
std::string HexFingerprint(const std::string& key) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(key.size() * 2);
  for (unsigned char c : key) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

// Whole microseconds between two span-clock stamps.
uint64_t Micros(uint64_t begin_ns, uint64_t end_ns) {
  return (end_ns - begin_ns) / 1000;
}

}  // namespace

Dispatcher::Dispatcher(SearchEngine* engine,
                       const DispatcherOptions& options)
    : engine_(engine),
      options_(options),
      sampler_(options.span_sample_rate) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    accepted_ = m->GetCounter("server.requests_accepted");
    rejected_ = m->GetCounter("server.requests_rejected");
    deadline_exceeded_ = m->GetCounter("server.deadline_exceeded");
    batches_ = m->GetCounter("server.batches_dispatched");
    queue_depth_ = m->GetHistogram("server.queue_depth");
    batch_size_ = m->GetHistogram("server.batch_size");
    queue_wait_micros_ = m->GetHistogram("server.queue_wait_micros");
    search_micros_ = m->GetHistogram("server.search_micros");
    request_micros_ = m->GetHistogram("server.request_micros");
    for (size_t i = 0; i < search_counters_.size(); ++i) {
      search_counters_[i] = m->GetCounter(
          std::string("search.") + obs::SearchTrace::kCounters[i].name);
    }
    for (size_t i = 0; i < search_histograms_.size(); ++i) {
      search_histograms_[i] = m->GetHistogram(
          std::string("search.") + obs::SearchTrace::kTimings[i].name);
    }
  }
  const uint32_t workers = std::max<uint32_t>(options_.workers, 1);
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Dispatcher::~Dispatcher() { Stop(); }

Result<SearchResult> Dispatcher::Execute(const SearchRequest& request,
                                         bool* sampled) {
  if (sampled != nullptr) *sampled = false;
  auto pending = std::make_shared<Pending>();
  pending->admitted_ns = obs::SpanRecorder::NowNanos();
  pending->query = request.query;
  pending->options = request.ToSearchOptions();
  pending->options.threads = options_.search_threads;
  pending->options.chain_mode = options_.chain_mode;
  pending->options.min_chain_score = options_.min_chain_score;
  if (request.deadline_millis > 0) {
    pending->deadline = Deadline::AfterMillis(request.deadline_millis);
  }
  pending->key = request.OptionsKey();
  pending->trace_id = request.trace_id;

  // Span sampling: decided at admission so the timeline covers the
  // queue wait too. The slow-log pin overrides the rate — a replayed
  // request an operator already sees in /slowz always gets a timeline.
  if (options_.span_store != nullptr &&
      (sampler_.ShouldSample(request.trace_id) ||
       (options_.flight != nullptr &&
        options_.flight->SlowPinned(request.trace_id)))) {
    pending->spans = std::make_unique<obs::SpanRecorder>(request.trace_id);
    pending->root_span = pending->spans->StartSpan("request");
    pending->queue_span = pending->spans->StartSpan("queue.wait");
    pending->options.spans = pending->spans.get();
  }

  {
    MutexLock lock(&mu_);
    if (stopping_) {
      if (rejected_ != nullptr) rejected_->Increment();
      return Status::Overloaded("server is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      if (rejected_ != nullptr) rejected_->Increment();
      return Status::Overloaded("request queue is full (" +
                                std::to_string(options_.max_queue) + ")");
    }
    queue_.push_back(pending);
    if (accepted_ != nullptr) accepted_->Increment();
    if (queue_depth_ != nullptr) queue_depth_->Record(queue_.size());
    work_cv_.NotifyOne();
    while (!pending->done) done_cv_.Wait(&mu_);
  }
  // Reported only for requests that completed (a rejected request's
  // recorder never reached the span store).
  if (sampled != nullptr) *sampled = pending->spans != nullptr;
  if (!pending->status.ok()) return pending->status;
  return std::move(pending->result);
}

void Dispatcher::Stop() {
  // Serializes concurrent Stop() calls (say, Server::Shutdown racing
  // the destructor) so only one of them joins the workers.
  MutexLock stop_lock(&stop_mu_);
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

size_t Dispatcher::QueueDepth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

void Dispatcher::WorkerLoop() {
  while (true) {
    std::vector<std::shared_ptr<Pending>> batch;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stopping, and fully drained
      batch.push_back(queue_.front());
      queue_.pop_front();
      // Coalesce: sweep the queue front-to-back for requests that can
      // share this BatchSearch call (same options key), preserving
      // arrival order among those taken.
      const std::string& key = batch.front()->key;
      for (auto it = queue_.begin();
           it != queue_.end() && batch.size() < options_.max_batch;) {
        if ((*it)->key == key) {
          batch.push_back(*it);
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    RunBatch(std::move(batch));
  }
}

void Dispatcher::RunBatch(std::vector<std::shared_ptr<Pending>> batch) {
  if (batches_ != nullptr) batches_->Increment();
  if (batch_size_ != nullptr) batch_size_->Record(batch.size());
  const uint64_t dispatched_ns = obs::SpanRecorder::NowNanos();
  for (const auto& p : batch) {
    p->dispatched_ns = dispatched_ns;
    if (queue_wait_micros_ != nullptr) {
      queue_wait_micros_->Record(Micros(p->admitted_ns, dispatched_ns));
    }
    // queue.wait ends for every member at dispatch — including the
    // queue-expired ones, whose timeline is queue wait and nothing
    // else.
    if (p->spans != nullptr) p->spans->EndSpan(p->queue_span);
  }

  // Requests whose whole budget was spent queueing complete here as
  // truncated empties — paying for an alignment the client has already
  // given up on only deepens an overload.
  std::vector<std::shared_ptr<Pending>> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p->deadline.Expired()) {
      p->deadline_expired = true;
      SearchResult expired;
      expired.truncated = true;
      Complete(p, Status::OK(), std::move(expired));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  std::vector<std::string> queries;
  std::vector<Deadline> deadlines;
  std::vector<obs::SpanRecorder*> span_ptrs;
  queries.reserve(live.size());
  deadlines.reserve(live.size());
  span_ptrs.reserve(live.size());
  for (const auto& p : live) {
    queries.push_back(p->query);
    deadlines.push_back(p->deadline);
    // batch.search covers engine evaluation for this member. Each
    // request records into its own recorder (null for unsampled
    // batch-mates), so coalescing never blurs timelines — the same
    // isolation each result's own trace gives the funnel counters.
    if (p->spans != nullptr) {
      p->batch_span = p->spans->StartSpan("batch.search");
    }
    span_ptrs.push_back(p->spans.get());
  }

  const uint64_t search_begin_ns = obs::SpanRecorder::NowNanos();
  Result<std::vector<SearchResult>> results = engine_->BatchSearch(
      queries, live.front()->options, &deadlines, &span_ptrs);
  if (search_micros_ != nullptr) {
    search_micros_->Record(
        Micros(search_begin_ns, obs::SpanRecorder::NowNanos()));
  }

  if (results.ok()) {
    for (size_t i = 0; i < live.size(); ++i) {
      Complete(live[i], Status::OK(), std::move((*results)[i]));
    }
    return;
  }
  // The batch failed on its first bad query; re-run the members one at
  // a time so each request gets its own verdict instead of a shared
  // error (one malformed query must not fail its batch-mates).
  for (const auto& p : live) {
    SearchOptions options = p->options;
    options.deadline = p->deadline.has_deadline() ? &p->deadline : nullptr;
    options.spans = p->spans.get();  // keep the timeline on the retry path
    Result<SearchResult> one =
        SearchWithStrands(engine_, p->query, options);
    if (one.ok()) {
      Complete(p, Status::OK(), std::move(*one));
    } else {
      Complete(p, one.status(), SearchResult());
    }
  }
}

void Dispatcher::Complete(const std::shared_ptr<Pending>& p, Status status,
                          SearchResult result) {
  p->completed_ns = obs::SpanRecorder::NowNanos();
  // Until `done` is published below, the worker exclusively owns *p —
  // so the metrics and the record can be assembled and handed over
  // with no lock held at all, and the ordering guarantee still stands:
  // the moment the waiter can observe done (it re-acquires mu_ to read
  // it), both have already landed. Keeping FlightRecorder::Record
  // outside the critical section means its slot spinlock and slow-log
  // mutex never nest under mu_.
  p->status = std::move(status);
  p->result = std::move(result);
  // Close the timeline and hand it to the span store before `done` is
  // published, so a client that sees the response's sampled flag can
  // fetch /tracez immediately. Both stores use only leaf locks, so
  // nothing nests under mu_.
  if (p->spans != nullptr) {
    p->spans->EndSpan(p->batch_span);
    p->spans->EndSpan(p->root_span);
  }
  RecordMetrics(*p);
  RecordFlight(*p);
  if (p->spans != nullptr && options_.span_store != nullptr) {
    options_.span_store->Put(*p->spans);
  }
  {
    MutexLock lock(&mu_);
    p->done = true;
  }
  done_cv_.NotifyAll();
}

void Dispatcher::RecordMetrics(const Pending& p) {
  if (options_.metrics == nullptr) return;
  if (p.result.truncated) deadline_exceeded_->Increment();
  request_micros_->Record(Micros(p.admitted_ns, p.completed_ns));
  const obs::SearchTrace& trace = p.result.trace;
  if (trace.queries == 0) return;
  for (size_t i = 0; i < search_counters_.size(); ++i) {
    search_counters_[i]->Add(trace.*obs::SearchTrace::kCounters[i].member);
  }
  for (size_t i = 0; i < search_histograms_.size(); ++i) {
    search_histograms_[i]->Record(static_cast<uint64_t>(
        trace.*obs::SearchTrace::kTimings[i].member));
  }
}

void Dispatcher::RecordFlight(const Pending& p) {
  if (options_.flight == nullptr) return;
  obs::FlightRecord record;
  record.trace_id = p.trace_id;
  record.options_key = HexFingerprint(p.key);
  record.queue_micros = Micros(p.admitted_ns, p.dispatched_ns);
  record.total_micros = Micros(p.admitted_ns, p.completed_ns);
  record.trace = p.result.trace;
  record.hits = static_cast<uint32_t>(p.result.hits.size());
  record.status_code = StatusCodeToWire(p.status);
  record.truncated = p.result.truncated;
  record.deadline_expired = p.deadline_expired;
  record.sampled = p.spans != nullptr;
  options_.flight->Record(std::move(record));
}

}  // namespace cafe::server
