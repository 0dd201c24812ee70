// Tests for the introspection HTTP listener: request parsing, routing
// to the handler, error statuses, connection-thread reaping, accepting
// again after running out of descriptors, a peer that hangs up before
// its response, a peer that never reads it, and shutdown.

#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>

namespace cafe::server {
namespace {

// Connects the socket `fd` to 127.0.0.1:`port`.
void ConnectSocket(int fd, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
}

// A socket connected to 127.0.0.1:`port`.
int Connect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  ConnectSocket(fd, port);
  return fd;
}

// Sends `request` verbatim on a connected socket, half-closes it, reads
// the response to EOF (or to the socket's receive timeout) and closes.
std::string ExchangeOn(int fd, const std::string& request) {
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  shutdown(fd, SHUT_WR);
  std::string response;
  char buf[1024];
  while (true) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

// One raw HTTP exchange: connect, send `request` verbatim, read to EOF.
std::string Exchange(uint16_t port, const std::string& request) {
  return ExchangeOn(Connect(port), request);
}

// This process's virtual size in KiB, from /proc/self/status.
int64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize line in /proc/self/status";
  return 0;
}

class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    HttpOptions options;
    options.metrics = &metrics_;
    server_ = std::make_unique<HttpServer>(
        [](const std::string& path, const std::string& query) {
          HttpResponse response;
          if (path == "/hello") {
            response.body = "hi there\n";
          } else if (path == "/json") {
            response.content_type = "application/json";
            response.body = "{\"ok\":true}";
          } else if (path == "/echo") {
            response.body = "query=" + query + "\n";
          } else {
            response.status = 404;
            response.body = "nope\n";
          }
          return response;
        },
        options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  obs::MetricsRegistry metrics_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, ServesHandlerResponse) {
  StartServer();
  std::string response =
      Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 9"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\nhi there\n"), std::string::npos);
}

TEST_F(HttpServerTest, ContentTypePassesThrough) {
  StartServer();
  std::string response =
      Exchange(server_->port(), "GET /json HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("{\"ok\":true}"), std::string::npos);
}

TEST_F(HttpServerTest, UnknownPathIs404) {
  StartServer();
  std::string response =
      Exchange(server_->port(), "GET /missing HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos)
      << response;
}

TEST_F(HttpServerTest, QueryStringIsStripped) {
  StartServer();
  std::string response =
      Exchange(server_->port(), "GET /hello?x=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << response;
}

TEST_F(HttpServerTest, QueryStringReachesHandler) {
  StartServer();
  std::string response = Exchange(
      server_->port(), "GET /echo?trace_id=00c0ffee HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("query=trace_id=00c0ffee\n"), std::string::npos)
      << response;
  // No '?' means the handler sees an empty query string.
  response = Exchange(server_->port(), "GET /echo HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("query=\n"), std::string::npos) << response;
}

TEST_F(HttpServerTest, NonGetIs405) {
  StartServer();
  std::string response = Exchange(
      server_->port(), "POST /hello HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 405 Method Not Allowed"),
            std::string::npos)
      << response;
}

TEST_F(HttpServerTest, MalformedRequestLineIs400) {
  StartServer();
  std::string response = Exchange(server_->port(), "GARBAGE\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 400 Bad Request"), std::string::npos)
      << response;
}

TEST_F(HttpServerTest, CountsRequests) {
  StartServer();
  obs::Counter* requests = metrics_.GetCounter("server.http_requests");
  const uint64_t before = requests->Value();
  (void)Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  (void)Exchange(server_->port(), "GET /missing HTTP/1.0\r\n\r\n");
  EXPECT_EQ(requests->Value(), before + 2);
}

TEST_F(HttpServerTest, ShutdownIsIdempotentAndRestartable) {
  StartServer();
  const uint16_t first_port = server_->port();
  server_->Shutdown();
  server_->Shutdown();  // idempotent
  ASSERT_TRUE(server_->Start().ok());
  EXPECT_NE(server_->port(), 0);
  (void)first_port;
  std::string response =
      Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
}

TEST_F(HttpServerTest, FinishedConnectionThreadsAreJoined) {
  // One thread per request, each with a ~8 MiB stack mapped until it is
  // joined: a scraper's 200 GETs must not pin 200 of them.
  StartServer();
  (void)Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
  const int64_t before = VmSizeKib();
  for (int i = 0; i < 200; ++i) {
    std::string response =
        Exchange(server_->port(), "GET /hello HTTP/1.0\r\n\r\n");
    ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
  }
  EXPECT_LT(VmSizeKib() - before, 512 * 1024)
      << "VmSize grew by " << (VmSizeKib() - before) / 1024 << " MiB";
}

TEST_F(HttpServerTest, AcceptOutlivesRunningOutOfDescriptors) {
  // Both client sockets exist before the descriptor limit drops to the
  // lowest free descriptor, so both connect() calls still work. A blocked
  // accept() reserves its descriptor before it waits, so it may still
  // take the first connection; the accept() after it, or the first one
  // if it had not started yet, fails with EMFILE until the limit is back.
  StartServer();
  int clients[2];
  const timeval timeout{5, 0};
  for (int& fd : clients) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
              0);
  }
  const int lowest_free = dup(clients[0]);
  ASSERT_GE(lowest_free, 0);
  close(lowest_free);
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
  for (int fd : clients) ConnectSocket(fd, server_->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);

  for (int fd : clients) {
    std::string response = ExchangeOn(fd, "GET /hello HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("200 OK"), std::string::npos)
        << "a pending GET got no response: " << response;
  }
  server_->Shutdown();
}

TEST(HttpServerPeerTest, PeerGoneBeforeLargeResponseIsSurvived) {
  // The body outgrows any socket send buffer, so writing it takes more
  // than one call, and the call after the peer's reset must fail with
  // an error — not raise SIGPIPE, whose default action ends the process.
  HttpServer server(
      [](const std::string& path, const std::string&) {
        HttpResponse response;
        if (path == "/big") {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          response.body.assign(size_t{8} << 20, 'x');
        } else {
          response.body = "small\n";
        }
        return response;
      },
      HttpOptions());
  ASSERT_TRUE(server.Start().ok());

  const int fd = Connect(server.port());
  const std::string request = "GET /big HTTP/1.0\r\n\r\n";
  ASSERT_EQ(write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  close(fd);  // gone before the handler even answers
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  std::string response =
      Exchange(server.port(), "GET /small HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << response;
  server.Shutdown();
}

TEST(HttpServerPeerTest, ShutdownDoesNotWaitForAPeerThatNeverReads) {
  // The body outgrows the socket buffers on both ends, so the handler
  // blocks in send() until the listener's send timeout fails it.
  std::atomic<bool> answered{false};
  HttpServer server(
      [&](const std::string&, const std::string&) {
        HttpResponse response;
        response.body.assign(size_t{16} << 20, 'x');
        answered = true;
        return response;
      },
      HttpOptions());
  ASSERT_TRUE(server.Start().ok());

  const int fd = Connect(server.port());
  const std::string request = "GET /big HTTP/1.0\r\n\r\n";
  ASSERT_EQ(write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  for (int i = 0; i < 5000 && !answered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(answered);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Closes the client late if Shutdown still waits on it, so a failing
  // run ends instead of hanging.
  std::promise<void> shut_down;
  bool watchdog_closed = false;
  std::thread watchdog([&, done = shut_down.get_future()] {
    if (done.wait_for(std::chrono::seconds(20)) !=
        std::future_status::ready) {
      close(fd);
      watchdog_closed = true;
    }
  });
  const auto begin = std::chrono::steady_clock::now();
  server.Shutdown();
  const auto waited = std::chrono::steady_clock::now() - begin;
  shut_down.set_value();
  watchdog.join();
  if (!watchdog_closed) close(fd);
  // The send that filled the buffers returns short after one timeout,
  // the next fails after another.
  EXPECT_LT(waited, 2 * Listener::kSendTimeout + std::chrono::seconds(2));
}

}  // namespace
}  // namespace cafe::server
