#include "server/dispatcher.h"

#include <algorithm>
#include <future>
#include <memory>

#include "util/deadline.h"

namespace cafe::server {
namespace {

// Whole microseconds between two span-clock stamps.
uint64_t Micros(uint64_t begin_ns, uint64_t end_ns) {
  return (end_ns - begin_ns) / 1000;
}

}  // namespace

Dispatcher::Dispatcher(SearchEngine* engine,
                       const DispatcherOptions& options)
    : engine_(engine),
      options_(options),
      sampler_(options.span_sample_rate),
      pool_(engine->SupportsConcurrentSearch()
                ? std::max<uint32_t>(options.workers, 1)
                : 1) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    accepted_ = m->GetCounter("server.requests_accepted");
    rejected_ = m->GetCounter("server.requests_rejected");
    deadline_exceeded_ = m->GetCounter("server.deadline_exceeded");
    queue_depth_ = m->GetHistogram("server.queue_depth");
    queue_wait_micros_ = m->GetHistogram("server.queue_wait_micros");
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
}

Dispatcher::~Dispatcher() { Stop(); }

Result<SearchResult> Dispatcher::Execute(const SearchRequest& request,
                                         bool* sampled) {
  if (sampled != nullptr) *sampled = false;
  Admitted a;
  a.admitted_ns = obs::SpanRecorder::NowNanos();
  a.trace_id = request.trace_id;
  SearchOptions options = request.ToSearchOptions();
  options.threads = options_.search_threads;
  options.chain_mode = options_.chain_mode;
  options.min_chain_score = options_.min_chain_score;
  Deadline deadline;
  if (request.deadline_millis > 0) {
    deadline = Deadline::AfterMillis(request.deadline_millis);
    options.deadline = &deadline;
  }

  // Span sampling: decided at admission so the timeline covers the
  // queue wait too. The slow-log pin overrides the rate — a replayed
  // request an operator already sees in /slowz always gets a timeline.
  std::unique_ptr<obs::SpanRecorder> spans;
  uint32_t root_span = 0;
  uint32_t queue_span = 0;
  if (options_.span_store != nullptr &&
      (sampler_.ShouldSample(request.trace_id) ||
       (options_.flight != nullptr &&
        options_.flight->SlowPinned(request.trace_id)))) {
    spans = std::make_unique<obs::SpanRecorder>(request.trace_id);
    root_span = spans->StartSpan("request");
    queue_span = spans->StartSpan("queue.wait");
    options.spans = spans.get();
  }

  // The search, run on a pool thread when the request's turn comes.
  auto search = [&] {
    {
      MutexLock lock(&mu_);
      --waiting_;
    }
    a.started_ns = obs::SpanRecorder::NowNanos();
    if (spans != nullptr) spans->EndSpan(queue_span);
    if (deadline.Expired()) {
      // The whole budget went on waiting: paying for an alignment the
      // client has already given up on only deepens an overload.
      a.deadline_expired = true;
      a.result.truncated = true;
    } else {
      Result<SearchResult> result =
          SearchWithStrands(engine_, request.query, options);
      if (result.ok()) {
        a.result = std::move(*result);
      } else {
        a.status = result.status();
      }
    }
    a.completed_ns = obs::SpanRecorder::NowNanos();
  };
  std::future<void> searched;
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      if (rejected_ != nullptr) rejected_->Increment();
      return Status::Overloaded("server is shutting down");
    }
    if (waiting_ >= options_.max_queue) {
      if (rejected_ != nullptr) rejected_->Increment();
      return Status::Overloaded("request queue is full (" +
                                std::to_string(options_.max_queue) + ")");
    }
    ++waiting_;
    ++active_;
    if (accepted_ != nullptr) accepted_->Increment();
    if (queue_depth_ != nullptr) queue_depth_->Record(waiting_);
    searched = pool_.Submit(search);
  }
  searched.wait();

  // Recorded before the request counts as completed, so once Stop()
  // returns every admitted request is on /metrics, /flightz and /tracez.
  a.sampled = spans != nullptr;
  if (spans != nullptr) spans->EndSpan(root_span);
  RecordMetrics(a);
  RecordFlight(a);
  if (spans != nullptr) options_.span_store->Put(*spans);
  {
    MutexLock lock(&mu_);
    // Under mu_: once it is released Stop() may return and the
    // dispatcher go away.
    if (--active_ == 0) idle_cv_.NotifyAll();
  }
  if (sampled != nullptr) *sampled = a.sampled;
  if (!a.status.ok()) return a.status;
  return std::move(a.result);
}

void Dispatcher::Stop() {
  MutexLock lock(&mu_);
  stopping_ = true;
  while (active_ > 0) idle_cv_.Wait(&mu_);
}

size_t Dispatcher::QueueDepth() const {
  MutexLock lock(&mu_);
  return waiting_;
}

void Dispatcher::RecordMetrics(const Admitted& a) {
  if (options_.metrics == nullptr) return;
  if (a.result.truncated) deadline_exceeded_->Increment();
  queue_wait_micros_->Record(Micros(a.admitted_ns, a.started_ns));
  request_micros_->Record(Micros(a.admitted_ns, a.completed_ns));
  const obs::SearchTrace& trace = a.result.trace;
  if (trace.queries == 0) return;
  for (size_t i = 0; i < search_counters_.size(); ++i) {
    search_counters_[i]->Add(trace.*obs::SearchTrace::kCounters[i].member);
  }
  for (size_t i = 0; i < search_histograms_.size(); ++i) {
    search_histograms_[i]->Record(static_cast<uint64_t>(
        trace.*obs::SearchTrace::kTimings[i].member));
  }
}

void Dispatcher::RecordFlight(const Admitted& a) {
  if (options_.flight == nullptr) return;
  obs::FlightRecord record;
  record.trace_id = a.trace_id;
  record.queue_micros = Micros(a.admitted_ns, a.started_ns);
  record.total_micros = Micros(a.admitted_ns, a.completed_ns);
  record.trace = a.result.trace;
  record.hits = static_cast<uint32_t>(a.result.hits.size());
  record.status_code = StatusCodeToWire(a.status);
  record.truncated = a.result.truncated;
  record.deadline_expired = a.deadline_expired;
  record.sampled = a.sampled;
  options_.flight->Record(std::move(record));
}

}  // namespace cafe::server
