// Minimal HTTP/1.0 listener for live introspection (/metrics, /statusz,
// /flightz, /slowz in cafe_serve).
//
// This is deliberately not a web server: GET only, no keep-alive, no
// TLS, request line + headers capped at a few KiB, every response ends
// with Connection: close. It exists so an operator (or a Prometheus
// scraper) can look inside a running cafe_serve with curl — the query
// protocol stays on its own binary port. Connections run on the same
// Listener core as Server (server/listener.h): one accept thread, one
// short-lived thread per connection, joined once the connection ends;
// handlers run on the connection thread and must be thread-safe.

#ifndef CAFE_SERVER_HTTP_H_
#define CAFE_SERVER_HTTP_H_

#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.h"
#include "server/listener.h"
#include "util/status.h"

namespace cafe::server {

struct HttpOptions {
  /// Address to bind; numeric IPv4 only.
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port — read it back via port().
  uint16_t port = 0;
  /// When non-null, server.http_requests counts every request served
  /// (any path, any status).
  obs::MetricsRegistry* metrics = nullptr;
};

struct HttpResponse {
  /// HTTP status code; 200/400/404/405 are the ones this server emits.
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Maps a request path (e.g. "/metrics") and its raw query string
/// (everything after '?', without the '?'; empty when absent — e.g.
/// "trace_id=00c0ffee" for "/tracez?trace_id=00c0ffee") to a response.
/// Runs on a connection thread — must be thread-safe and should be
/// quick.
using HttpHandler = std::function<HttpResponse(const std::string& path,
                                               const std::string& query)>;

class HttpServer {
 public:
  HttpServer(HttpHandler handler, const HttpOptions& options);

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts accepting.
  [[nodiscard]] Status Start() {
    return listener_.Start(options_.bind_address, options_.port);
  }

  /// The actually bound port (resolves port 0) — valid after Start().
  uint16_t port() const { return listener_.port(); }

  /// Stops accepting, half-closes every live connection (a response
  /// being written still goes out), joins the threads. Idempotent;
  /// destruction calls it too.
  void Shutdown() { listener_.Shutdown(); }

 private:
  void HandleConnection(int fd);

  const HttpHandler handler_;
  const HttpOptions options_;

  obs::Counter* requests_ = nullptr;

  // Declared last, so it is destroyed first: every connection thread is
  // joined before the handler it runs goes.
  Listener listener_{[this](int fd) { HandleConnection(fd); }};
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_HTTP_H_
