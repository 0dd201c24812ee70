#include "server/protocol.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "coding/byte_io.h"
#include "util/crc32.h"

namespace cafe::server {
namespace {

using coding::ByteReader;
using coding::ByteWriter;

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
  ByteWriter(&out).PutU32String(hello.server_version);
  return out;
}

Status DecodeHello(std::string_view payload, Hello* out) {
  ByteReader r(payload, "hello");
  CAFE_RETURN_IF_ERROR(r.GetU32String(&out->server_version));
  return r.ExpectDone();
}

std::string EncodeSearchRequest(const SearchRequest& request) {
  std::string out;
  ByteWriter w(&out);
  w.PutU32(request.max_results);
  w.PutU32(request.fine_candidates);
  w.PutU32(static_cast<uint32_t>(request.band));
  w.PutU32(request.frame_width);
  w.PutU32(static_cast<uint32_t>(request.min_score));
  w.PutU8(static_cast<uint8_t>(request.diagonal_mode));
  w.PutU8(static_cast<uint8_t>(request.both_strands));
  w.PutU8(static_cast<uint8_t>(request.rescore_full));
  w.PutU32(request.deadline_millis);
  w.PutU32String(request.query);
  w.PutU64(request.trace_id);
  return out;
}

Status DecodeSearchRequest(std::string_view payload, SearchRequest* out) {
  ByteReader r(payload, "search request");
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
  CAFE_RETURN_IF_ERROR(r.GetU32String(&out->query));
  CAFE_RETURN_IF_ERROR(r.GetU64(&out->trace_id));
  CAFE_RETURN_IF_ERROR(r.ExpectDone());
  out->band = static_cast<int32_t>(band);
  out->min_score = static_cast<int32_t>(min_score);
  if (diagonal > 1 || both > 1 || rescore > 1) {
    return r.Fail("flag byte out of range");
  }
  out->diagonal_mode = diagonal != 0;
  out->both_strands = both != 0;
  out->rescore_full = rescore != 0;
  return Status::OK();
}

std::string EncodeSearchResponse(const SearchResponse& response) {
  std::string out;
  ByteWriter w(&out);
  w.PutU8(StatusCodeToWire(response.status));
  w.PutU32String(response.status.message());
  w.PutU8(static_cast<uint8_t>(response.truncated));
  w.PutU32(static_cast<uint32_t>(response.hits.size()));
  for (const SearchHit& hit : response.hits) {
    w.PutU32(hit.seq_id);
    w.PutU32(static_cast<uint32_t>(hit.score));
    w.PutDouble(hit.coarse_score);
    w.PutU8(hit.strand == Strand::kReverse ? 1 : 0);
  }
  w.PutU64(response.trace_id);
  w.PutU8(static_cast<uint8_t>(response.sampled));
  return out;
}

Status DecodeSearchResponse(std::string_view payload, SearchResponse* out) {
  ByteReader r(payload, "search response");
  uint8_t code = 0, truncated = 0;
  std::string message;
  uint32_t hit_count = 0;
  CAFE_RETURN_IF_ERROR(r.GetU8(&code));
  CAFE_RETURN_IF_ERROR(r.GetU32String(&message));
  CAFE_RETURN_IF_ERROR(r.GetU8(&truncated));
  CAFE_RETURN_IF_ERROR(r.GetU32(&hit_count));
  if (truncated > 1) return r.Fail("flag byte out of range");
  // 17 bytes per hit (u32 + u32 + double + u8), checked before the
  // reserve, so a hostile count never triggers a giant one.
  CAFE_RETURN_IF_ERROR(r.CheckCount(hit_count, 17));
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
    if (strand > 1) return r.Fail("strand out of range");
    hit.score = static_cast<int32_t>(score);
    hit.strand = strand == 1 ? Strand::kReverse : Strand::kForward;
    out->hits.push_back(std::move(hit));
  }
  uint8_t sampled = 0;
  CAFE_RETURN_IF_ERROR(r.GetU64(&out->trace_id));
  CAFE_RETURN_IF_ERROR(r.GetU8(&sampled));
  if (sampled > 1) return r.Fail("sampled out of range");
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
  ByteWriter w(&frame);
  w.PutU32(kFrameMagic);
  w.PutU16(kProtocolVersion);
  w.PutU16(static_cast<uint16_t>(type));
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload.data(), payload.size()));
  w.PutBytes(payload);
  return SendAll(fd, frame);
}

Status ReadFrame(int fd, FrameType* type, std::string* payload) {
  char header[kFrameHeaderBytes];
  bool clean_eof = true;
  CAFE_RETURN_IF_ERROR(RecvAll(fd, header, sizeof(header), &clean_eof));
  if (clean_eof) return Status::NotFound("peer closed the connection");

  ByteReader r(std::string_view(header, sizeof(header)), "frame header");
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
