#include "server/protocol.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/crc32.h"

namespace cafe::server {
namespace {

// --- Little-endian byte packing ------------------------------------
// The postings codecs (coding/) are bit-level; the wire wants plain
// byte-aligned little-endian, so the helpers live here.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

// Bounds-checked cursor over an untrusted payload. Every getter fails
// with Corruption instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] Status GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return Short();
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  [[nodiscard]] Status GetU16(uint16_t* v) {
    uint8_t lo = 0, hi = 0;
    CAFE_RETURN_IF_ERROR(GetU8(&lo));
    CAFE_RETURN_IF_ERROR(GetU8(&hi));
    *v = static_cast<uint16_t>(lo | (hi << 8));
    return Status::OK();
  }

  [[nodiscard]] Status GetU32(uint32_t* v) {
    uint16_t lo = 0, hi = 0;
    CAFE_RETURN_IF_ERROR(GetU16(&lo));
    CAFE_RETURN_IF_ERROR(GetU16(&hi));
    *v = static_cast<uint32_t>(lo) | (static_cast<uint32_t>(hi) << 16);
    return Status::OK();
  }

  [[nodiscard]] Status GetU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    CAFE_RETURN_IF_ERROR(GetU32(&lo));
    CAFE_RETURN_IF_ERROR(GetU32(&hi));
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return Status::OK();
  }

  [[nodiscard]] Status GetDouble(double* v) {
    uint64_t bits = 0;
    CAFE_RETURN_IF_ERROR(GetU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  [[nodiscard]] Status GetString(std::string* s) {
    uint32_t size = 0;
    CAFE_RETURN_IF_ERROR(GetU32(&size));
    if (size > data_.size() - pos_) return Short();
    s->assign(data_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  /// Trailing bytes after a complete decode are themselves corruption —
  /// a well-formed peer never pads.
  [[nodiscard]] Status ExpectDone() const {
    if (pos_ != data_.size()) {
      return Status::Corruption("trailing bytes after payload");
    }
    return Status::OK();
  }

 private:
  static Status Short() {
    return Status::Corruption("payload truncated");
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// --- EINTR-safe socket reads ---------------------------------------

/// Reads exactly `size` bytes. `*eof_ok` in: whether a clean EOF before
/// the first byte is acceptable; out: whether that clean EOF happened.
Status RecvAll(int fd, char* data, size_t size, bool* eof_ok) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok != nullptr && *eof_ok) return Status::OK();
      return Status::IOError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  if (eof_ok != nullptr) *eof_ok = false;
  return Status::OK();
}

}  // namespace

Status SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

SearchOptions SearchRequest::ToSearchOptions() const {
  SearchOptions options;
  options.max_results = max_results;
  options.fine_candidates = fine_candidates;
  options.band = band;
  options.frame_width = frame_width;
  options.min_score = min_score;
  options.coarse_mode =
      diagonal_mode ? CoarseRankMode::kDiagonal : CoarseRankMode::kHitCount;
  options.search_both_strands = both_strands;
  options.rescore_full = rescore_full;
  return options;
}

std::string EncodeHello(const Hello& hello) {
  std::string out;
  PutString(&out, hello.server_version);
  return out;
}

Status DecodeHello(std::string_view payload, Hello* out) {
  ByteReader r(payload);
  CAFE_RETURN_IF_ERROR(r.GetString(&out->server_version));
  return r.ExpectDone();
}

std::string EncodeSearchRequest(const SearchRequest& request) {
  std::string out;
  PutU32(&out, request.max_results);
  PutU32(&out, request.fine_candidates);
  PutU32(&out, static_cast<uint32_t>(request.band));
  PutU32(&out, request.frame_width);
  PutU32(&out, static_cast<uint32_t>(request.min_score));
  PutU8(&out, static_cast<uint8_t>(request.diagonal_mode));
  PutU8(&out, static_cast<uint8_t>(request.both_strands));
  PutU8(&out, static_cast<uint8_t>(request.rescore_full));
  PutU32(&out, request.deadline_millis);
  PutString(&out, request.query);
  PutU64(&out, request.trace_id);
  return out;
}

Status DecodeSearchRequest(std::string_view payload, SearchRequest* out) {
  ByteReader r(payload);
  uint8_t diagonal = 0, both = 0, rescore = 0;
  uint32_t band = 0, min_score = 0;
  CAFE_RETURN_IF_ERROR(r.GetU32(&out->max_results));
  CAFE_RETURN_IF_ERROR(r.GetU32(&out->fine_candidates));
  CAFE_RETURN_IF_ERROR(r.GetU32(&band));
  CAFE_RETURN_IF_ERROR(r.GetU32(&out->frame_width));
  CAFE_RETURN_IF_ERROR(r.GetU32(&min_score));
  CAFE_RETURN_IF_ERROR(r.GetU8(&diagonal));
  CAFE_RETURN_IF_ERROR(r.GetU8(&both));
  CAFE_RETURN_IF_ERROR(r.GetU8(&rescore));
  CAFE_RETURN_IF_ERROR(r.GetU32(&out->deadline_millis));
  CAFE_RETURN_IF_ERROR(r.GetString(&out->query));
  CAFE_RETURN_IF_ERROR(r.GetU64(&out->trace_id));
  CAFE_RETURN_IF_ERROR(r.ExpectDone());
  out->band = static_cast<int32_t>(band);
  out->min_score = static_cast<int32_t>(min_score);
  if (diagonal > 1 || both > 1 || rescore > 1) {
    return Status::Corruption("search request: flag byte out of range");
  }
  out->diagonal_mode = diagonal != 0;
  out->both_strands = both != 0;
  out->rescore_full = rescore != 0;
  return Status::OK();
}

std::string EncodeSearchResponse(const SearchResponse& response) {
  std::string out;
  PutU8(&out, StatusCodeToWire(response.status));
  PutString(&out, response.status.message());
  PutU8(&out, static_cast<uint8_t>(response.truncated));
  PutU32(&out, static_cast<uint32_t>(response.hits.size()));
  for (const SearchHit& hit : response.hits) {
    PutU32(&out, hit.seq_id);
    PutU32(&out, static_cast<uint32_t>(hit.score));
    PutDouble(&out, hit.coarse_score);
    PutU8(&out, hit.strand == Strand::kReverse ? 1 : 0);
  }
  PutU64(&out, response.trace_id);
  PutU8(&out, static_cast<uint8_t>(response.sampled));
  return out;
}

Status DecodeSearchResponse(std::string_view payload, SearchResponse* out) {
  ByteReader r(payload);
  uint8_t code = 0, truncated = 0;
  std::string message;
  uint32_t hit_count = 0;
  CAFE_RETURN_IF_ERROR(r.GetU8(&code));
  CAFE_RETURN_IF_ERROR(r.GetString(&message));
  CAFE_RETURN_IF_ERROR(r.GetU8(&truncated));
  CAFE_RETURN_IF_ERROR(r.GetU32(&hit_count));
  if (truncated > 1) {
    return Status::Corruption("search response: flag byte out of range");
  }
  // 17 bytes per hit (u32 + u32 + double + u8); the count cannot
  // promise more than the payload holds, so a hostile count never
  // triggers a giant reserve.
  if (hit_count > payload.size() / 17) {
    return Status::Corruption("search response: hit count exceeds payload");
  }
  out->status = StatusFromWire(code, std::move(message));
  out->truncated = truncated != 0;
  out->hits.clear();
  out->hits.reserve(hit_count);
  for (uint32_t i = 0; i < hit_count; ++i) {
    SearchHit hit;
    uint32_t score = 0;
    uint8_t strand = 0;
    CAFE_RETURN_IF_ERROR(r.GetU32(&hit.seq_id));
    CAFE_RETURN_IF_ERROR(r.GetU32(&score));
    CAFE_RETURN_IF_ERROR(r.GetDouble(&hit.coarse_score));
    CAFE_RETURN_IF_ERROR(r.GetU8(&strand));
    if (strand > 1) {
      return Status::Corruption("search response: strand out of range");
    }
    hit.score = static_cast<int32_t>(score);
    hit.strand = strand == 1 ? Strand::kReverse : Strand::kForward;
    out->hits.push_back(std::move(hit));
  }
  uint8_t sampled = 0;
  CAFE_RETURN_IF_ERROR(r.GetU64(&out->trace_id));
  CAFE_RETURN_IF_ERROR(r.GetU8(&sampled));
  if (sampled > 1) {
    return Status::Corruption("search response: sampled out of range");
  }
  out->sampled = sampled != 0;
  return r.ExpectDone();
}

uint8_t StatusCodeToWire(const Status& status) {
  return static_cast<uint8_t>(status.code());
}

Status StatusFromWire(uint8_t code, std::string message) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(message));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(message));
    case Status::Code::kIOError:
      return Status::IOError(std::move(message));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(message));
    case Status::Code::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case Status::Code::kInternal:
      return Status::Internal(std::move(message));
    case Status::Code::kOverloaded:
      return Status::Overloaded(std::move(message));
  }
  return Status::Internal("unknown wire status code " +
                          std::to_string(code) + ": " + message);
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxPayloadBytes");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, kFrameMagic);
  PutU16(&frame, kProtocolVersion);
  PutU16(&frame, static_cast<uint16_t>(type));
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame.append(payload.data(), payload.size());
  return SendAll(fd, frame);
}

Status ReadFrame(int fd, FrameType* type, std::string* payload) {
  char header[kFrameHeaderBytes];
  bool clean_eof = true;
  CAFE_RETURN_IF_ERROR(RecvAll(fd, header, sizeof(header), &clean_eof));
  if (clean_eof) return Status::NotFound("peer closed the connection");

  ByteReader r(std::string_view(header, sizeof(header)));
  uint32_t magic = 0, size = 0, crc = 0;
  uint16_t version = 0, raw_type = 0;
  CAFE_RETURN_IF_ERROR(r.GetU32(&magic));
  CAFE_RETURN_IF_ERROR(r.GetU16(&version));
  CAFE_RETURN_IF_ERROR(r.GetU16(&raw_type));
  CAFE_RETURN_IF_ERROR(r.GetU32(&size));
  CAFE_RETURN_IF_ERROR(r.GetU32(&crc));
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  if (version != kProtocolVersion) {
    return Status::NotSupported("protocol version " + std::to_string(version) +
                                ", this build speaks " +
                                std::to_string(kProtocolVersion));
  }
  if (size > kMaxPayloadBytes) {
    return Status::Corruption("frame payload length " +
                              std::to_string(size) + " exceeds limit");
  }
  payload->clear();
  while (payload->size() < size) {
    const size_t have = payload->size();
    const size_t step = std::min<size_t>(size - have, kFrameReadStepBytes);
    payload->resize(have + step);
    CAFE_RETURN_IF_ERROR(RecvAll(fd, payload->data() + have, step, nullptr));
  }
  if (Crc32(payload->data(), payload->size()) != crc) {
    return Status::Corruption("frame payload CRC mismatch");
  }
  *type = static_cast<FrameType>(raw_type);
  return Status::OK();
}

}  // namespace cafe::server
