// Wire protocol round trips and hostile-input behaviour: every decoder
// must turn arbitrary bytes into a Status, never a crash, and the frame
// reader must reject tampered headers (magic, version, length, CRC).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "server/protocol.h"
#include "util/crc32.h"
#include "util/random.h"

namespace cafe::server {
namespace {

// A connected AF_UNIX stream pair; frames written to fds[0] are read
// from fds[1]. (The frame I/O uses send/recv with MSG_NOSIGNAL, which
// needs sockets, not pipes.)
struct SocketPair {
  int fds[2];
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) close(fd);
    }
  }
  void CloseWriter() {
    close(fds[0]);
    fds[0] = -1;
  }
};

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>(v >> 8));
}

// Hand-builds a frame so tests can corrupt individual header fields.
std::string RawFrame(uint32_t magic, uint16_t version, uint16_t type,
                     uint32_t size, uint32_t crc,
                     const std::string& payload) {
  std::string out;
  PutU32(&out, magic);
  PutU16(&out, version);
  PutU16(&out, type);
  PutU32(&out, size);
  PutU32(&out, crc);
  out += payload;
  return out;
}

void SendRaw(int fd, const std::string& bytes) {
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

SearchRequest MakeRequest() {
  SearchRequest r;
  r.max_results = 7;
  r.fine_candidates = 55;
  r.band = 32;
  r.frame_width = 24;
  r.min_score = 3;
  r.diagonal_mode = false;
  r.both_strands = true;
  r.rescore_full = true;
  r.deadline_millis = 1500;
  r.query = "ACGTACGTNRY";
  return r;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// The encoders' bytes for fixed inputs, pinned: a change to the codecs
// must keep every payload and frame byte-identical.
TEST(ProtocolTest, GoldenBytes) {
  Hello hello;
  hello.server_version = "cafe 0.4.0";
  EXPECT_EQ(Hex(EncodeHello(hello)), "0a0000006361666520302e342e30");

  SearchRequest request = MakeRequest();
  request.band = -3;
  request.min_score = 300;
  request.query = "ACGTNRY";
  request.trace_id = 0x0123456789abcdefULL;
  EXPECT_EQ(Hex(EncodeSearchRequest(request)),
            "0700000037000000fdffffff180000002c010000000101dc050000"
            "07000000414347544e5259efcdab8967452301");

  SearchResponse response;
  response.status = Status::Overloaded("queue full");
  response.truncated = true;
  SearchHit forward;
  forward.seq_id = 3;
  forward.score = 57;
  forward.coarse_score = 12.5;
  SearchHit reverse;
  reverse.seq_id = 70000;
  reverse.score = -1;
  reverse.coarse_score = -0.25;
  reverse.strand = Strand::kReverse;
  response.hits = {forward, reverse};
  response.trace_id = 0xfedcba9876543210ULL;
  response.sampled = true;
  EXPECT_EQ(Hex(EncodeSearchResponse(response)),
            "080a00000071756575652066756c6c0102000000030000003900000000"
            "000000000029400070110100ffffffff000000000000d0bf0110325476"
            "98badcfe01");

  SocketPair sp;
  ASSERT_TRUE(
      WriteFrame(sp.fds[0], FrameType::kHello, EncodeHello(hello)).ok());
  char frame[64];
  const ssize_t n = recv(sp.fds[1], frame, sizeof(frame), 0);
  ASSERT_GT(n, 0);
  EXPECT_EQ(Hex(std::string_view(frame, static_cast<size_t>(n))),
            "43414645030001000e000000c75292550a0000006361666520302e342e30");
}

TEST(ProtocolTest, HelloRoundTrip) {
  Hello in;
  in.server_version = "0.4.0+abc123";
  Hello out;
  ASSERT_TRUE(DecodeHello(EncodeHello(in), &out).ok());
  EXPECT_EQ(out.server_version, in.server_version);
}

TEST(ProtocolTest, SearchRequestRoundTrip) {
  SearchRequest in = MakeRequest();
  SearchRequest out;
  ASSERT_TRUE(DecodeSearchRequest(EncodeSearchRequest(in), &out).ok());
  EXPECT_EQ(out.max_results, in.max_results);
  EXPECT_EQ(out.fine_candidates, in.fine_candidates);
  EXPECT_EQ(out.band, in.band);
  EXPECT_EQ(out.frame_width, in.frame_width);
  EXPECT_EQ(out.min_score, in.min_score);
  EXPECT_EQ(out.diagonal_mode, in.diagonal_mode);
  EXPECT_EQ(out.both_strands, in.both_strands);
  EXPECT_EQ(out.rescore_full, in.rescore_full);
  EXPECT_EQ(out.deadline_millis, in.deadline_millis);
  EXPECT_EQ(out.query, in.query);
}

TEST(ProtocolTest, SearchResponseRoundTrip) {
  SearchResponse in;
  in.truncated = true;
  SearchHit hit;
  hit.seq_id = 42;
  hit.score = 117;
  hit.coarse_score = 31.5;
  hit.strand = Strand::kReverse;
  in.hits.push_back(hit);
  hit.seq_id = 7;
  hit.score = 12;
  hit.coarse_score = 3.0;
  hit.strand = Strand::kForward;
  in.hits.push_back(hit);

  SearchResponse out;
  ASSERT_TRUE(DecodeSearchResponse(EncodeSearchResponse(in), &out).ok());
  EXPECT_TRUE(out.status.ok());
  EXPECT_TRUE(out.truncated);
  ASSERT_EQ(out.hits.size(), 2u);
  EXPECT_EQ(out.hits[0].seq_id, 42u);
  EXPECT_EQ(out.hits[0].score, 117);
  EXPECT_EQ(out.hits[0].coarse_score, 31.5);
  EXPECT_EQ(out.hits[0].strand, Strand::kReverse);
  EXPECT_EQ(out.hits[1].seq_id, 7u);
}

TEST(ProtocolTest, ErrorResponseCarriesStatus) {
  SearchResponse in;
  in.status = Status::Overloaded("queue full");
  SearchResponse out;
  ASSERT_TRUE(DecodeSearchResponse(EncodeSearchResponse(in), &out).ok());
  EXPECT_TRUE(out.status.IsOverloaded());
  EXPECT_NE(out.status.ToString().find("queue full"), std::string::npos);
  EXPECT_TRUE(out.hits.empty());
}

TEST(ProtocolTest, StatusWireCodesRoundTrip) {
  const Status statuses[] = {
      Status::OK(),
      Status::InvalidArgument("a"),
      Status::NotFound("b"),
      Status::Corruption("c"),
      Status::IOError("d"),
      Status::NotSupported("e"),
      Status::OutOfRange("f"),
      Status::Internal("g"),
      Status::Overloaded("h"),
  };
  for (const Status& s : statuses) {
    Status back = StatusFromWire(StatusCodeToWire(s), "msg");
    EXPECT_EQ(back.code(), s.code()) << s.ToString();
  }
  // Unknown codes from a newer peer degrade to Internal, not a failure.
  EXPECT_TRUE(StatusFromWire(250, "future code").IsInternal());
}

TEST(ProtocolTest, TrailingBytesRejected) {
  std::string payload = EncodeSearchRequest(MakeRequest());
  payload.push_back('\0');
  SearchRequest out;
  Status s = DecodeSearchRequest(payload, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ProtocolTest, TruncatedPayloadsReturnCorruption) {
  // Every proper prefix must fail cleanly — no partial-read crashes.
  const std::string full = EncodeSearchRequest(MakeRequest());
  for (size_t len = 0; len < full.size(); ++len) {
    SearchRequest out;
    Status s = DecodeSearchRequest(full.substr(0, len), &out);
    EXPECT_TRUE(s.IsCorruption()) << "prefix length " << len << ": "
                                  << s.ToString();
  }
  const std::string hello = EncodeHello({"v1"});
  for (size_t len = 0; len < hello.size(); ++len) {
    Hello out;
    EXPECT_FALSE(DecodeHello(hello.substr(0, len), &out).ok());
  }
}

TEST(ProtocolTest, DecodeFuzzNeverCrashes) {
  // Random bytes through every decoder: any Status is fine, UB is not.
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    size_t len = rng.Uniform(64);
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    Hello hello;
    (void)DecodeHello(bytes, &hello);
    SearchRequest request;
    (void)DecodeSearchRequest(bytes, &request);
    SearchResponse response;
    (void)DecodeSearchResponse(bytes, &response);
  }
}

TEST(ProtocolTest, FrameRoundTripOverSocket) {
  SocketPair sp;
  const std::string payload = EncodeSearchRequest(MakeRequest());
  ASSERT_TRUE(
      WriteFrame(sp.fds[0], FrameType::kSearchRequest, payload).ok());

  FrameType type{};
  std::string got;
  ASSERT_TRUE(ReadFrame(sp.fds[1], &type, &got).ok());
  EXPECT_EQ(type, FrameType::kSearchRequest);
  EXPECT_EQ(got, payload);
}

TEST(ProtocolTest, EmptyPayloadFrameRoundTrip) {
  SocketPair sp;
  ASSERT_TRUE(WriteFrame(sp.fds[0], FrameType::kStatsRequest, "").ok());
  FrameType type{};
  std::string got;
  ASSERT_TRUE(ReadFrame(sp.fds[1], &type, &got).ok());
  EXPECT_EQ(type, FrameType::kStatsRequest);
  EXPECT_TRUE(got.empty());
}

TEST(ProtocolTest, CleanEofIsNotFound) {
  SocketPair sp;
  sp.CloseWriter();
  FrameType type{};
  std::string payload;
  Status s = ReadFrame(sp.fds[1], &type, &payload);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST(ProtocolTest, MidHeaderEofIsError) {
  SocketPair sp;
  SendRaw(sp.fds[0], std::string("CAFE\x01", 5));  // 5 of 16 header bytes
  sp.CloseWriter();
  FrameType type{};
  std::string payload;
  Status s = ReadFrame(sp.fds[1], &type, &payload);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsNotFound()) << s.ToString();
}

TEST(ProtocolTest, BadMagicIsCorruption) {
  SocketPair sp;
  const std::string payload = "xy";
  SendRaw(sp.fds[0], RawFrame(0xDEADBEEF, kProtocolVersion, 2,
                              payload.size(), Crc32(payload.data(), payload.size()), payload));
  FrameType type{};
  std::string got;
  Status s = ReadFrame(sp.fds[1], &type, &got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ProtocolTest, VersionSkewIsNotSupported) {
  SocketPair sp;
  const std::string payload = "xy";
  SendRaw(sp.fds[0], RawFrame(kFrameMagic, kProtocolVersion + 1, 2,
                              payload.size(), Crc32(payload.data(), payload.size()), payload));
  FrameType type{};
  std::string got;
  Status s = ReadFrame(sp.fds[1], &type, &got);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
}

TEST(ProtocolTest, OversizedLengthIsCorruption) {
  SocketPair sp;
  // The header alone promises more than kMaxPayloadBytes; the reader
  // must reject before allocating anything of that size.
  SendRaw(sp.fds[0], RawFrame(kFrameMagic, kProtocolVersion, 2,
                              kMaxPayloadBytes + 1, 0, ""));
  FrameType type{};
  std::string got;
  Status s = ReadFrame(sp.fds[1], &type, &got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ProtocolTest, ClaimedPayloadIsNotAllocatedUpFront) {
  SocketPair sp;
  // A header that claims the largest legal payload, ten body bytes, then
  // the peer goes away: the reader must fail having grown its buffer by
  // one step, not by the 64 MiB the header promised.
  SendRaw(sp.fds[0], RawFrame(kFrameMagic, kProtocolVersion, 2,
                              kMaxPayloadBytes, 0, std::string(10, 'x')));
  sp.CloseWriter();
  FrameType type{};
  std::string got;
  Status s = ReadFrame(sp.fds[1], &type, &got);
  EXPECT_FALSE(s.ok());
  EXPECT_LE(got.capacity(), kFrameReadStepBytes);
}

TEST(ProtocolTest, CrcMismatchIsCorruption) {
  SocketPair sp;
  const std::string payload = "payload bytes";
  SendRaw(sp.fds[0], RawFrame(kFrameMagic, kProtocolVersion, 2,
                              payload.size(), Crc32(payload.data(), payload.size()) ^ 1,
                              payload));
  FrameType type{};
  std::string got;
  Status s = ReadFrame(sp.fds[1], &type, &got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ProtocolTest, FlippedPayloadByteFailsCrc) {
  SocketPair sp;
  std::string payload = "payload bytes";
  uint32_t crc = Crc32(payload.data(), payload.size());
  payload[3] ^= 0x20;  // corrupt after the CRC was computed
  SendRaw(sp.fds[0], RawFrame(kFrameMagic, kProtocolVersion, 2,
                              payload.size(), crc, payload));
  FrameType type{};
  std::string got;
  Status s = ReadFrame(sp.fds[1], &type, &got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ProtocolTest, ToSearchOptionsMapsEveryWireField) {
  SearchRequest r = MakeRequest();
  SearchOptions o = r.ToSearchOptions();
  EXPECT_EQ(o.max_results, r.max_results);
  EXPECT_EQ(o.fine_candidates, r.fine_candidates);
  EXPECT_EQ(o.band, r.band);
  EXPECT_EQ(o.frame_width, r.frame_width);
  EXPECT_EQ(o.min_score, r.min_score);
  EXPECT_EQ(o.coarse_mode, CoarseRankMode::kHitCount);  // diagonal off
  EXPECT_TRUE(o.search_both_strands);
  EXPECT_TRUE(o.rescore_full);
  EXPECT_EQ(o.deadline, nullptr);  // deadlines stay per-request
}

// --- Trace-id propagation and the one protocol version ---------------

TEST(ProtocolTest, TraceIdRoundTripsInRequest) {
  SearchRequest in = MakeRequest();
  in.trace_id = 0x0123456789abcdefull;
  SearchRequest out;
  ASSERT_TRUE(DecodeSearchRequest(EncodeSearchRequest(in), &out).ok());
  EXPECT_EQ(out.trace_id, in.trace_id);
  EXPECT_EQ(out.query, in.query);
}

TEST(ProtocolTest, TraceIdRoundTripsInResponse) {
  SearchResponse in;
  in.trace_id = 0xfeedface12345678ull;
  SearchHit hit;
  hit.seq_id = 1;
  in.hits.push_back(hit);
  SearchResponse out;
  ASSERT_TRUE(DecodeSearchResponse(EncodeSearchResponse(in), &out).ok());
  EXPECT_EQ(out.trace_id, in.trace_id);
  ASSERT_EQ(out.hits.size(), 1u);
}

TEST(ProtocolTest, PayloadsMissingTheTraceIdAreCorruption) {
  // The trace id is a required field in both directions: a payload
  // that ends before it is corrupt, not an older peer's shape.
  SearchRequest request = MakeRequest();
  request.trace_id = 77;
  std::string short_request = EncodeSearchRequest(request);
  short_request.resize(short_request.size() - sizeof(uint64_t));
  SearchRequest req_out;
  Status s = DecodeSearchRequest(short_request, &req_out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  SearchResponse response;
  response.trace_id = 99;
  response.sampled = true;
  SearchHit hit;
  hit.seq_id = 5;
  response.hits.push_back(hit);
  std::string short_response = EncodeSearchResponse(response);
  short_response.resize(short_response.size() - sizeof(uint64_t) -
                        sizeof(uint8_t));
  SearchResponse resp_out;
  s = DecodeSearchResponse(short_response, &resp_out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ProtocolTest, SampledFlagRoundTripsInResponse) {
  for (bool sampled : {false, true}) {
    SearchResponse in;
    in.trace_id = 0xabc;
    in.sampled = sampled;
    SearchResponse out;
    ASSERT_TRUE(DecodeSearchResponse(EncodeSearchResponse(in), &out).ok());
    EXPECT_EQ(out.sampled, sampled);
    EXPECT_EQ(out.trace_id, 0xabcu);
  }
}

TEST(ProtocolTest, ResponsesMissingTheSampledByteAreCorruption) {
  // A response that ends at the trace id lacks the required sampled
  // byte: corruption, not "not sampled".
  SearchResponse response;
  response.trace_id = 0x1234;
  response.sampled = true;
  std::string short_response = EncodeSearchResponse(response);
  short_response.resize(short_response.size() - sizeof(uint8_t));
  SearchResponse out;
  Status s = DecodeSearchResponse(short_response, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // The sampled byte is a strict boolean: anything else is corruption,
  // not a silently-truthy flag.
  std::string bad = EncodeSearchResponse(response);
  bad.back() = 2;
  s = DecodeSearchResponse(bad, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ProtocolTest, VersionsOutsideTheWindowAreRejected) {
  // The window is the one version kProtocolVersion: the older versions
  // and the next one all fail with NotSupported.
  const std::string payload = "xy";
  for (uint16_t version : {0, 1, 2, kProtocolVersion + 1}) {
    SocketPair sp;
    SendRaw(sp.fds[0],
            RawFrame(kFrameMagic, version, 2, payload.size(),
                     Crc32(payload.data(), payload.size()), payload));
    FrameType type{};
    std::string got;
    Status s = ReadFrame(sp.fds[1], &type, &got);
    EXPECT_TRUE(s.IsNotSupported()) << "version " << version << ": "
                                    << s.ToString();
  }
}

}  // namespace
}  // namespace cafe::server
