#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace cafe::server {
namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

uint64_t SplitMix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t Client::MintTraceId() {
  // Seeded once per process from the wall clock; each mint advances a
  // counter through splitmix64, so ids are unique within the process
  // and overwhelmingly unlikely to collide across processes.
  static const uint64_t base = SplitMix64(static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count()));
  static std::atomic<uint64_t> counter{0};
  uint64_t id = 0;
  while (id == 0) {  // 0 means "no trace id" on the wire
    id = SplitMix64(base ^ counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host (numeric IPv4 only): " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("connect");
    close(fd);
    return s;
  }

  // make_unique cannot reach the private constructor; the pointer is
  // owned by the unique_ptr on the same line.
  std::unique_ptr<Client> client(new Client(fd));  // NOLINT(cafe-no-naked-new)
  // The server speaks first: consume its Hello before the first request.
  FrameType type{};
  std::string payload;
  CAFE_RETURN_IF_ERROR(ReadFrame(fd, &type, &payload));
  if (type != FrameType::kHello) {
    return Status::Corruption("expected Hello frame, got type " +
                              std::to_string(static_cast<int>(type)));
  }
  Hello hello;
  CAFE_RETURN_IF_ERROR(DecodeHello(payload, &hello));
  client->server_version_ = std::move(hello.server_version);
  return client;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status Client::Search(const SearchRequest& request,
                      SearchResponse* response) {
  if (fd_ < 0) return Status::IOError("client is closed");
  SearchRequest outbound = request;
  if (outbound.trace_id == 0) outbound.trace_id = MintTraceId();
  CAFE_RETURN_IF_ERROR(WriteFrame(fd_, FrameType::kSearchRequest,
                                  EncodeSearchRequest(outbound)));
  FrameType type{};
  std::string payload;
  CAFE_RETURN_IF_ERROR(ReadFrame(fd_, &type, &payload));
  if (type == FrameType::kError) {
    return Status::Corruption("server rejected the frame: " + payload);
  }
  if (type != FrameType::kSearchResponse) {
    return Status::Corruption("expected SearchResponse frame, got type " +
                              std::to_string(static_cast<int>(type)));
  }
  CAFE_RETURN_IF_ERROR(DecodeSearchResponse(payload, response));
  // A server that could not decode the request does not know its id
  // and echoes 0; the caller still learns the id it travelled under.
  if (response->trace_id == 0) response->trace_id = outbound.trace_id;
  return Status::OK();
}

Status Client::Stats(std::string* json) {
  if (fd_ < 0) return Status::IOError("client is closed");
  CAFE_RETURN_IF_ERROR(
      WriteFrame(fd_, FrameType::kStatsRequest, std::string()));
  FrameType type{};
  std::string payload;
  CAFE_RETURN_IF_ERROR(ReadFrame(fd_, &type, &payload));
  if (type != FrameType::kStatsResponse) {
    return Status::Corruption("expected StatsResponse frame, got type " +
                              std::to_string(static_cast<int>(type)));
  }
  *json = std::move(payload);
  return Status::OK();
}

}  // namespace cafe::server
