#include "server/server.h"

#include "alphabet/nucleotide.h"
#include "util/version.h"

namespace cafe::server {

Server::Server(SearchEngine* engine, const ServerOptions& options)
    : engine_(engine), options_(options) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  connections_ = metrics_->GetCounter("server.connections");
  protocol_errors_ = metrics_->GetCounter("server.protocol_errors");
  stats_requests_ = metrics_->GetCounter("server.stats_requests");
}

Status Server::Start() {
  // Checked before the dispatcher is replaced: live handlers use it.
  if (listener_.started()) return Status::Internal("Start() called twice");
  DispatcherOptions dopt = options_.dispatcher;
  dopt.metrics = metrics_;
  dispatcher_ = std::make_unique<Dispatcher>(engine_, dopt);
  Status s = listener_.Start(options_.bind_address, options_.port);
  if (!s.ok()) dispatcher_.reset();  // joins the search threads
  return s;
}

void Server::Shutdown() {
  // The Listener joins every connection first, and with them every
  // request, so Stop finds the dispatcher idle; the search threads go
  // with the dispatcher. Each step is serialized and idempotent on its
  // own.
  listener_.Shutdown();
  if (dispatcher_ != nullptr) dispatcher_->Stop();
}

void Server::HandleConnection(int fd) {
  connections_->Increment();
  Hello hello;
  hello.server_version = kVersionString;
  Status s = WriteFrame(fd, FrameType::kHello, EncodeHello(hello));

  while (s.ok()) {
    FrameType type{};
    std::string payload;
    Status read = ReadFrame(fd, &type, &payload);
    if (!read.ok()) {
      // NotFound = clean hang-up between frames; anything else is a
      // corrupt or misbehaving peer and poisons the stream.
      if (!read.IsNotFound()) protocol_errors_->Increment();
      break;
    }
    switch (type) {
      case FrameType::kSearchRequest: {
        SearchRequest request;
        SearchResponse response;
        Status decoded = DecodeSearchRequest(payload, &request);
        if (!decoded.ok()) {
          protocol_errors_->Increment();
          response.status = std::move(decoded);
        } else {
          // Echo the trace id whatever the outcome, so the caller can
          // join even a rejected request with the server's records.
          response.trace_id = request.trace_id;
          request.query = NormalizeSequence(request.query);
          if (!IsValidSequence(request.query) || request.query.empty()) {
            response.status = Status::InvalidArgument(
                "query contains non-IUPAC characters");
          } else {
            bool sampled = false;
            Result<SearchResult> result =
                dispatcher_->Execute(request, &sampled);
            response.sampled = sampled;
            if (result.ok()) {
              response.truncated = result->truncated;
              response.hits = std::move(result->hits);
            } else {
              response.status = result.status();
            }
          }
        }
        s = WriteFrame(fd, FrameType::kSearchResponse,
                       EncodeSearchResponse(response));
        break;
      }
      case FrameType::kStatsRequest: {
        stats_requests_->Increment();
        s = WriteFrame(fd, FrameType::kStatsResponse, StatsJson());
        break;
      }
      default: {
        protocol_errors_->Increment();
        s = WriteFrame(fd, FrameType::kError,
                       "unsupported frame type");
        break;
      }
    }
  }
}

std::string Server::StatsJson() const {
  std::string out = "{\"command\":\"stats\",\"server\":{\"version\":\"";
  out += obs::JsonEscape(kVersionString);
  out += "\",\"protocol\":";
  out += std::to_string(kProtocolVersion);
  out += ",\"engine\":\"";
  out += obs::JsonEscape(engine_->name());
  out += "\"},\"metrics\":";
  out += metrics_->SnapshotJson();
  out += "}";
  return out;
}

}  // namespace cafe::server
