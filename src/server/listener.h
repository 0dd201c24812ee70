// The connection core both servers share: a blocking TCP listener that
// runs each accepted connection on its own thread.
//
// Server (the binary query protocol) and HttpServer (introspection)
// each hold one Listener and supply only the per-connection protocol:
// a handler that owns the fd for the life of the connection. When the
// handler returns, the Listener closes the fd and the connection's
// thread is joined by the accept thread no later than its next accept,
// so threads held never exceed live connections plus connections that
// ended since the last accept. A failed accept() (EMFILE, say) is
// retried after a short pause; only Shutdown() ends the accept loop.
//
// Every accepted socket gets a send timeout (kSendTimeout), so a peer
// that stops reading fails the handler's write with an IOError instead
// of holding its thread.
//
// Shutdown() is ordered: stop accepting, half-close (SHUT_RD) every
// live connection — a handler blocked in a read sees EOF, a handler
// mid-response still writes its response — then join every connection
// thread. Idempotent; Start() may be called again afterwards.

#ifndef CAFE_SERVER_LISTENER_H_
#define CAFE_SERVER_LISTENER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"

namespace cafe::server {

class Listener {
 public:
  /// Runs on the connection's own thread and owns `fd` until it
  /// returns; the Listener closes it afterwards. Must be thread-safe.
  using Handler = std::function<void(int fd)>;

  /// SO_SNDTIMEO of every accepted socket: a send() that can hand the
  /// kernel nothing for this long fails. The call that filled the
  /// socket buffers returns short at its first timeout and the next
  /// call fails, so a peer that stops reading ends its handler (and
  /// stops holding Shutdown()) within about twice this.
  static constexpr std::chrono::seconds kSendTimeout{2};

  explicit Listener(Handler handler) : handler_(std::move(handler)) {}
  ~Listener() { Shutdown(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds `bind_address` (numeric IPv4 only, e.g. "127.0.0.1") and
  /// `port` (0 = ephemeral), listens, and starts the accept thread.
  /// InvalidArgument for a malformed address, IOError when the address
  /// or port is unavailable, Internal when already started.
  [[nodiscard]] Status Start(const std::string& bind_address, uint16_t port)
      CAFE_EXCLUDES(shutdown_mu_, mu_);

  /// True between a successful Start() and the next Shutdown().
  bool started() const CAFE_EXCLUDES(shutdown_mu_);

  /// The actually bound port (resolves port 0) — valid after Start().
  uint16_t port() const { return port_; }

  /// Graceful stop; see the file comment for the ordering.
  void Shutdown() CAFE_EXCLUDES(shutdown_mu_, mu_);

 private:
  void AcceptLoop() CAFE_EXCLUDES(mu_);
  /// One connection's thread: the handler, then close and report.
  void Serve(int fd, uint64_t id) CAFE_EXCLUDES(mu_);

  const Handler handler_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;

  // Serializes Start() and Shutdown(). Lock order: shutdown_mu_ before
  // mu_ — never the reverse.
  mutable Mutex shutdown_mu_ CAFE_ACQUIRED_BEFORE(mu_);
  bool started_ CAFE_GUARDED_BY(shutdown_mu_) = false;

  Mutex mu_;
  // Live connections. A connection's fd is erased and closed in one
  // critical section, so Shutdown never half-closes an fd number the
  // kernel has already handed to a newer connection.
  std::set<int> fds_ CAFE_GUARDED_BY(mu_);
  // Connection threads by id, finished or not, and the ids whose
  // handler has returned. When the accept thread registers the next
  // connection it takes the ended threads out, then joins them outside
  // mu_.
  std::map<uint64_t, std::thread> threads_ CAFE_GUARDED_BY(mu_);
  std::vector<uint64_t> ended_ CAFE_GUARDED_BY(mu_);
  uint64_t next_id_ CAFE_GUARDED_BY(mu_) = 0;
  bool stopping_ CAFE_GUARDED_BY(mu_) = false;

  // Started last by Start(), joined first by Shutdown().
  std::thread accept_thread_ CAFE_GUARDED_BY(shutdown_mu_);
};

}  // namespace cafe::server

#endif  // CAFE_SERVER_LISTENER_H_
