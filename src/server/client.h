// Blocking client for the cafe_serve wire protocol.
//
// One Client is one TCP connection; the protocol is strictly
// request/response, so a Client must not be shared between threads
// without external serialization (cafe_loadgen gives each client
// thread its own Client). Server-side failures — including
// kOverloaded rejections from admission control — come back as the
// Status inside the SearchResponse, not as a transport error.

#ifndef CAFE_SERVER_CLIENT_H_
#define CAFE_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "server/protocol.h"
#include "util/status.h"

namespace cafe::server {

class Client {
 public:
  /// Connects to `host`:`port` (numeric IPv4 only) and consumes the
  /// server's Hello frame. Fails with IOError when the connect or the
  /// handshake fails.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port);

  ~Client();  // closes the connection

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// The version string the server announced in its Hello frame.
  const std::string& server_version() const { return server_version_; }

  /// Sends one search and blocks for the response. A transport or
  /// framing failure poisons the connection; a server-side failure
  /// (bad query, overload) arrives in `response->status` with the
  /// connection still usable.
  ///
  /// Trace ids: when `request.trace_id` is 0 the client mints a random
  /// non-zero id for this request, so every request is joinable with
  /// the server's flight recorder / slow log. Either way,
  /// `response->trace_id` always carries the id this request travelled
  /// under — the server's echo, or the id that was sent when the
  /// server could not decode the request and so echoed 0.
  ///
  /// `response->sampled` reports whether the server recorded a span
  /// timeline for this request; if so, its Chrome-trace JSON is at
  /// /tracez?trace_id=… on the server's introspection port while the
  /// span store retains it.
  [[nodiscard]] Status Search(const SearchRequest& request,
                              SearchResponse* response);

  /// Fetches the server's stats document (the --stats=json schema).
  [[nodiscard]] Status Stats(std::string* json);

  /// Closes the connection; later Search/Stats calls fail. Idempotent.
  void Close();

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// A fresh non-zero trace id: a process-wide counter mixed through
  /// splitmix64 with a per-process random base, so ids from concurrent
  /// clients (and consecutive runs) don't collide or look sequential.
  static uint64_t MintTraceId();

  int fd_ = -1;
  std::string server_version_;
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_CLIENT_H_
