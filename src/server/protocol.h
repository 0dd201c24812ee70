// Wire protocol for the cafe_serve query daemon.
//
// Frames are length-prefixed binary with a fixed 16-byte header:
//
//   u32 magic    "CAFE" (0x45464143 little-endian)
//   u16 version  kProtocolVersion — mismatches are rejected on read
//   u16 type     FrameType
//   u32 size     payload bytes that follow (<= kMaxPayloadBytes)
//   u32 crc      CRC-32 of the payload (util/crc32.h)
//
// All integers are little-endian. Every byte off the wire is untrusted:
// decoders bound-check and return Status (never CAFE_CHECK, per the
// correctness-tooling policy) so a malicious or corrupt peer can only
// produce an error, not a crash. A header-level problem (bad magic,
// version skew, oversized length, CRC mismatch) poisons the stream and
// the connection should be closed; a payload-level decode error is
// answerable with an in-band error response.
//
// On connect the server speaks first with a kHello frame carrying its
// software version (util/version.h), so clients can log what they
// talked to; the protocol version rides in every frame header.

#ifndef CAFE_SERVER_PROTOCOL_H_
#define CAFE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "search/engine.h"
#include "util/status.h"

namespace cafe::server {

inline constexpr uint32_t kFrameMagic = 0x45464143u;  // "CAFE"
/// The one protocol version this build speaks: ReadFrame rejects every
/// other version with NotSupported. Every client and server is built
/// from this tree, so there is no compatibility window — a payload
/// missing a field is Corruption.
inline constexpr uint16_t kProtocolVersion = 4;
inline constexpr size_t kFrameHeaderBytes = 16;

/// Upper bound on a frame payload. Anything larger is Corruption —
/// a length prefix must never make the reader allocate unboundedly.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MiB

/// ReadFrame grows the payload buffer by at most this much per read, so
/// a peer that claims a large payload and then stalls holds memory in
/// proportion to the bytes it actually sent, not to the claim.
inline constexpr size_t kFrameReadStepBytes = size_t{1} << 16;  // 64 KiB

enum class FrameType : uint16_t {
  kHello = 1,          // server -> client, once, on connect
  kSearchRequest = 2,  // client -> server
  kSearchResponse = 3, // server -> client
  kStatsRequest = 4,   // client -> server (empty payload)
  kStatsResponse = 5,  // server -> client (JSON document)
  kError = 6,          // server -> client (unknown frame type)
};

struct Hello {
  std::string server_version;  // cafe::kVersionString of the server
};

/// The SearchOptions subset that travels on the wire, plus the query.
/// Everything a remote caller may choose; every other option (band,
/// frame width, minimum score, threads, traces, statistics) stays at
/// the server's setting.
struct SearchRequest {
  uint32_t max_results = 10;
  uint32_t fine_candidates = 100;
  bool diagonal_mode = true;  // false = CoarseRankMode::kHitCount
  bool both_strands = false;
  /// Per-request deadline in milliseconds, measured from admission;
  /// 0 = no deadline.
  uint32_t deadline_millis = 0;
  std::string query;  // normalized IUPAC nucleotides
  /// End-to-end request correlation id, echoed verbatim in the
  /// SearchResponse and stamped on the server's flight-recorder entry
  /// and log lines for this request. 0 = caller declined to pick one;
  /// Client::Search mints a random id in that case so every request is
  /// joinable.
  uint64_t trace_id = 0;

  /// The engine-side options these wire fields select (deadline and
  /// server-side knobs left at their defaults).
  SearchOptions ToSearchOptions() const;
};

struct SearchResponse {
  /// Status::Code of the server-side evaluation, kOk on success.
  Status status;
  /// True when the request's deadline fired: hits are partial.
  bool truncated = false;
  /// seq_id / score / coarse_score / strand are filled; alignment and
  /// statistics fields do not travel.
  std::vector<SearchHit> hits;
  /// The request's trace id, echoed so the client can join its own
  /// latency measurement with the server's flight-recorder entry.
  uint64_t trace_id = 0;
  /// True when the server recorded a span timeline for this request —
  /// fetch it at /tracez?trace_id=… while it is still in the span
  /// store.
  bool sampled = false;
};

// --- Payload codecs -------------------------------------------------

std::string EncodeHello(const Hello& hello);
[[nodiscard]] Status DecodeHello(std::string_view payload, Hello* out);

std::string EncodeSearchRequest(const SearchRequest& request);
[[nodiscard]] Status DecodeSearchRequest(std::string_view payload,
                                         SearchRequest* out);

std::string EncodeSearchResponse(const SearchResponse& response);
[[nodiscard]] Status DecodeSearchResponse(std::string_view payload,
                                          SearchResponse* out);

/// Status <-> wire code. Unknown wire codes decode to kInternal rather
/// than failing, so a newer peer's codes degrade gracefully.
uint8_t StatusCodeToWire(const Status& status);
Status StatusFromWire(uint8_t code, std::string message);

// --- Socket I/O (blocking, EINTR-safe) -----------------------------

/// Writes all of `data` to socket `fd`: the only socket write path of
/// the servers and the client. Sends with MSG_NOSIGNAL, so a peer that
/// hung up yields an IOError instead of killing the process with
/// SIGPIPE.
[[nodiscard]] Status SendAll(int fd, std::string_view data);

/// Writes one complete frame to `fd`.
[[nodiscard]] Status WriteFrame(int fd, FrameType type,
                                std::string_view payload);

/// Reads one complete frame. Clean EOF before any header byte returns
/// NotFound (the peer hung up between frames); everything else that is
/// short or inconsistent is IOError/Corruption.
[[nodiscard]] Status ReadFrame(int fd, FrameType* type,
                               std::string* payload);

}  // namespace cafe::server

#endif  // CAFE_SERVER_PROTOCOL_H_
