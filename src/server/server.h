// Blocking TCP query server: the long-running daemon behind cafe_serve.
//
// Threading model: a Listener (server/listener.h) runs the accept
// thread and one thread per connection (the protocol is strictly
// request/response per connection, so blocking reads are the simple
// and correct shape). Connection threads never touch the engine
// directly: every query goes through Dispatcher::Execute, the
// admission gate that runs it on one of a fixed number of search
// threads, and where queue bounds and deadlines live.
//
// Shutdown() is graceful and ordered: the Listener stops accepting,
// half-closes every connection (pending reads see EOF, requests already
// being processed still get their response written) and joins the
// connection threads, then the dispatcher stops. Safe to call from a
// signal-notified thread; idempotent. Destruction shuts down too.

#ifndef CAFE_SERVER_SERVER_H_
#define CAFE_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "search/engine.h"
#include "server/dispatcher.h"
#include "server/listener.h"
#include "util/status.h"

namespace cafe::server {

struct ServerOptions {
  /// Address to bind; numeric IPv4 only (e.g. "127.0.0.1", "0.0.0.0").
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port — read it back via port().
  uint16_t port = 0;
  DispatcherOptions dispatcher;
  /// Registry for the server.* metrics and the `stats` verb. When null
  /// the server creates and owns one, so stats always work.
  obs::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  /// `engine` must outlive the server. An engine that does not support
  /// concurrent Search gets one search at a time.
  Server(SearchEngine* engine, const ServerOptions& options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the dispatcher, then binds, listens, and starts accepting.
  /// Fails with IOError when the address or port is unavailable, and
  /// then leaves no search thread running.
  [[nodiscard]] Status Start();

  /// The actually bound port (resolves port 0) — valid after Start().
  uint16_t port() const { return listener_.port(); }

  /// Graceful drain; see the file comment for the ordering. Idempotent.
  void Shutdown();

  /// The registry the server records into (owned or caller-provided).
  obs::MetricsRegistry* metrics() { return metrics_; }

  /// Admitted requests still waiting for their turn right now (0
  /// before Start()). Feeds /statusz.
  size_t QueueDepth() const {
    return dispatcher_ != nullptr ? dispatcher_->QueueDepth() : 0;
  }

 private:
  void HandleConnection(int fd);
  /// The `stats` verb payload: one JSON document in the --stats=json
  /// schema family ({"command":"stats","server":{…},"metrics":{…}}).
  std::string StatsJson() const;

  SearchEngine* const engine_;
  ServerOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<Dispatcher> dispatcher_;

  obs::Counter* connections_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* stats_requests_ = nullptr;

  // Declared last, so it is destroyed first: every connection thread is
  // joined before the members its handler uses go.
  Listener listener_{[this](int fd) { HandleConnection(fd); }};
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_SERVER_H_
