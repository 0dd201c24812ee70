#include "server/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace cafe::server {
namespace {

constexpr int kListenBacklog = 64;
// How long the accept loop waits before it calls accept() again after an
// error such as EMFILE; the pending connection stays queued meanwhile.
constexpr std::chrono::milliseconds kAcceptRetryDelay{5};

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Status Listener::Start(const std::string& bind_address, uint16_t port) {
  MutexLock shutdown_lock(&shutdown_mu_);
  if (started_) return Status::Internal("Start() called twice");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " + bind_address);
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  socklen_t len = sizeof(addr);
  const char* failed = nullptr;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    failed = "bind";
  } else if (listen(fd, kListenBacklog) < 0) {
    failed = "listen";
  } else if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) <
             0) {
    failed = "getsockname";
  }
  if (failed != nullptr) {
    Status s = Errno(failed);
    close(fd);
    return s;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);

  {
    MutexLock lock(&mu_);
    stopping_ = false;  // allows Start() again after Shutdown()
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

bool Listener::started() const {
  MutexLock shutdown_lock(&shutdown_mu_);
  return started_;
}

void Listener::Shutdown() {
  MutexLock shutdown_lock(&shutdown_mu_);
  if (!started_) return;

  // 1. Stop accepting: shutdown() wakes the blocked accept(), then the
  //    accept thread exits and no new connection threads appear.
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;

  // 2. Half-close every live connection: handlers blocked in a read see
  //    EOF and return; a handler mid-request finishes it and still
  //    writes the response (writes stay open). Then join them all.
  std::map<uint64_t, std::thread> threads;
  {
    MutexLock lock(&mu_);
    for (int fd : fds_) shutdown(fd, SHUT_RD);
    threads.swap(threads_);
  }
  for (auto& [id, thread] : threads) thread.join();
  {
    MutexLock lock(&mu_);
    ended_.clear();  // every id in it was joined above
  }
  started_ = false;
}

void Listener::AcceptLoop() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      {
        MutexLock lock(&mu_);
        if (stopping_) return;  // shutdown(listen_fd_) in Shutdown()
      }
      // Out of descriptors or buffers for a moment: a loop that returned
      // here would leave the port bound and never accepting again.
      std::this_thread::sleep_for(kAcceptRetryDelay);
      continue;
    }
    const timeval send_timeout{kSendTimeout.count(), 0};
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
    std::vector<std::thread> ended;
    {
      MutexLock lock(&mu_);
      if (stopping_) {
        close(fd);
        return;
      }
      for (uint64_t id : ended_) {
        auto it = threads_.find(id);
        ended.push_back(std::move(it->second));
        threads_.erase(it);
      }
      ended_.clear();
      const uint64_t id = next_id_++;
      fds_.insert(fd);
      threads_.emplace(id, std::thread([this, fd, id] { Serve(fd, id); }));
    }
    // Outside mu_: an ended thread may still be exiting, and the wait
    // must not stall the live connections' bookkeeping.
    for (std::thread& thread : ended) thread.join();
  }
}

void Listener::Serve(int fd, uint64_t id) {
  handler_(fd);
  MutexLock lock(&mu_);
  fds_.erase(fd);
  close(fd);
  ended_.push_back(id);
}

}  // namespace cafe::server
