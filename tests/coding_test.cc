#include <gtest/gtest.h>

#include "coding/binary.h"
#include "coding/byte_io.h"
#include "coding/elias.h"
#include "coding/golomb.h"
#include "coding/unary.h"
#include "coding/vbyte.h"
#include "util/bitio.h"

namespace cafe::coding {
namespace {

TEST(UnaryCodeTest, RoundTrip) {
  BitWriter w;
  for (uint64_t v = 1; v <= 40; ++v) EncodeUnary(&w, v);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  for (uint64_t v = 1; v <= 40; ++v) EXPECT_EQ(DecodeUnary(&r), v);
}

TEST(UnaryCodeTest, BitCost) {
  EXPECT_EQ(UnaryBits(1), 1u);
  EXPECT_EQ(UnaryBits(7), 7u);
  BitWriter w;
  EncodeUnary(&w, 9);
  EXPECT_EQ(w.bit_count(), 9u);
}

TEST(GammaCodeTest, KnownCodes) {
  // gamma(1) = "1"
  {
    BitWriter w;
    EncodeGamma(&w, 1);
    EXPECT_EQ(w.bit_count(), 1u);
    std::vector<uint8_t> b = w.Finish();
    EXPECT_EQ(b[0], 0x80);
  }
  // gamma(2) = "010", gamma(3) = "011"
  {
    BitWriter w;
    EncodeGamma(&w, 2);
    EXPECT_EQ(w.bit_count(), 3u);
    std::vector<uint8_t> b = w.Finish();
    EXPECT_EQ(b[0], 0b01000000);
  }
  {
    BitWriter w;
    EncodeGamma(&w, 5);  // 101 -> "00" "1" "01" = 00101
    EXPECT_EQ(w.bit_count(), 5u);
    std::vector<uint8_t> b = w.Finish();
    EXPECT_EQ(b[0], 0b00101000);
  }
}

TEST(GammaCodeTest, RoundTripWideRange) {
  BitWriter w;
  std::vector<uint64_t> values;
  for (uint64_t v = 1; v < 2000; v += 7) values.push_back(v);
  values.push_back(uint64_t{1} << 40);
  values.push_back((uint64_t{1} << 40) + 12345);
  for (uint64_t v : values) EncodeGamma(&w, v);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  for (uint64_t v : values) EXPECT_EQ(DecodeGamma(&r), v);
  EXPECT_FALSE(r.overflowed());
}

TEST(GammaCodeTest, BitCostMatchesFormula) {
  for (uint64_t v : {1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 1000ull}) {
    BitWriter w;
    EncodeGamma(&w, v);
    EXPECT_EQ(w.bit_count(), GammaBits(v)) << v;
  }
  EXPECT_EQ(GammaBits(1), 1u);
  EXPECT_EQ(GammaBits(2), 3u);
  EXPECT_EQ(GammaBits(4), 5u);
}

TEST(DeltaCodeTest, RoundTripWideRange) {
  BitWriter w;
  std::vector<uint64_t> values;
  for (uint64_t v = 1; v < 5000; v += 13) values.push_back(v);
  values.push_back(uint64_t{1} << 50);
  for (uint64_t v : values) EncodeDelta(&w, v);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  for (uint64_t v : values) EXPECT_EQ(DecodeDelta(&r), v);
}

TEST(DeltaCodeTest, ShorterThanGammaForLargeValues) {
  EXPECT_LT(DeltaBits(1 << 20), GammaBits(1 << 20));
  // And the cost formula matches the writer.
  BitWriter w;
  EncodeDelta(&w, 123456);
  EXPECT_EQ(w.bit_count(), DeltaBits(123456));
}

TEST(GolombCodeTest, RoundTripVariousParameters) {
  for (uint64_t b : {1ull, 2ull, 3ull, 7ull, 8ull, 64ull, 100ull}) {
    BitWriter w;
    for (uint64_t v = 1; v <= 300; ++v) EncodeGolomb(&w, v, b);
    std::vector<uint8_t> bytes = w.Finish();
    BitReader r(bytes);
    for (uint64_t v = 1; v <= 300; ++v) {
      EXPECT_EQ(DecodeGolomb(&r, b), v) << "b=" << b << " v=" << v;
    }
  }
}

TEST(GolombCodeTest, BitCostMatchesFormula) {
  for (uint64_t b : {1ull, 3ull, 8ull, 13ull}) {
    for (uint64_t v = 1; v <= 100; ++v) {
      BitWriter w;
      EncodeGolomb(&w, v, b);
      EXPECT_EQ(w.bit_count(), GolombBits(v, b)) << "b=" << b << " v=" << v;
    }
  }
}

TEST(GolombCodeTest, TruncatedBinarySavesBits) {
  // With b=3 (not a power of two), remainder 0 takes 1 bit, 1/2 take 2.
  EXPECT_EQ(GolombBits(1, 3), 2u);  // q=0 (1 bit) + rem 0 (1 bit)
  EXPECT_EQ(GolombBits(2, 3), 3u);
  EXPECT_EQ(GolombBits(3, 3), 3u);
  EXPECT_EQ(GolombBits(4, 3), 3u);  // q=1
}

TEST(GolombCodeTest, OptimalParameterFormula) {
  // mean gap = universe/occurrences; b ~= 0.69 * mean.
  EXPECT_EQ(OptimalGolombParameter(100, 10000), 69u);
  EXPECT_EQ(OptimalGolombParameter(1, 1), 1u);
  EXPECT_EQ(OptimalGolombParameter(0, 100), 1u);
  EXPECT_EQ(OptimalGolombParameter(100, 0), 1u);
  EXPECT_GE(OptimalGolombParameter(1000000, 1000000), 1u);
}

TEST(RiceCodeTest, RoundTrip) {
  for (int k : {0, 1, 3, 7}) {
    BitWriter w;
    for (uint64_t v = 1; v <= 200; ++v) EncodeRice(&w, v, k);
    std::vector<uint8_t> bytes = w.Finish();
    BitReader r(bytes);
    for (uint64_t v = 1; v <= 200; ++v) {
      EXPECT_EQ(DecodeRice(&r, k), v) << "k=" << k;
    }
  }
}

TEST(RiceCodeTest, MatchesGolombPowerOfTwo) {
  // Rice with parameter k is Golomb with b = 2^k: identical bit cost.
  for (uint64_t v = 1; v <= 64; ++v) {
    EXPECT_EQ(RiceBits(v, 3), GolombBits(v, 8)) << v;
  }
}

TEST(RiceCodeTest, OptimalParameter) {
  int k = OptimalRiceParameter(100, 10000);  // golomb b = 69 -> k = 6
  EXPECT_EQ(k, 6);
  EXPECT_EQ(OptimalRiceParameter(1, 1), 0);
}

TEST(VByteCodeTest, RoundTrip) {
  BitWriter w;
  std::vector<uint64_t> values = {1, 2, 127, 128, 129, 16384, 1 << 20,
                                  uint64_t{1} << 40};
  for (uint64_t v : values) EncodeVByte(&w, v);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  for (uint64_t v : values) EXPECT_EQ(DecodeVByte(&r), v);
}

TEST(VByteCodeTest, ByteBoundaries) {
  EXPECT_EQ(VByteBits(1), 8u);
  EXPECT_EQ(VByteBits(128), 8u);   // stores v-1 = 127
  EXPECT_EQ(VByteBits(129), 16u);  // stores v-1 = 128
  EXPECT_EQ(VByteBits(uint64_t{1} << 22), 32u);
}

// The byte writer's vbyte is the bit-level code, byte-aligned, and the
// reader decodes it back.
TEST(VByteCodeTest, ByteFormMatchesTheBitStream) {
  const std::vector<uint64_t> values = {1, 128, 129, 300, uint64_t{1} << 33,
                                        ~uint64_t{0}};
  BitWriter bits;
  std::string bytes;
  ByteWriter w(&bytes);
  for (uint64_t v : values) {
    EncodeVByte(&bits, v);
    w.PutVByte(v);
  }
  const std::vector<uint8_t> expected = bits.Finish();
  EXPECT_EQ(bytes, std::string(expected.begin(), expected.end()));
  ByteReader r(bytes, "test");
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVByte(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.ExpectDone().ok());
}

Status ReadOneVByte(const std::string& bytes) {
  ByteReader r(bytes, "test");
  uint64_t v = 0;
  return r.GetVByte(&v);
}

TEST(ByteReaderTest, MalformedVBytesAreCorruption) {
  const struct {
    std::string bytes;
    const char* message;
  } cases[] = {
      {"", "test: truncated"},
      {"\x7f", "test: truncated"},
      // No terminator in ten bytes.
      {std::string(10, '\0'), "test: vbyte exceeds 64 bits"},
      // A tenth group past bit 63.
      {std::string(9, '\x7f') + '\x82', "test: vbyte exceeds 64 bits"},
      // The all-ones word: v - 1 = 2^64 - 1, so v would wrap to 0.
      {std::string(9, '\x7f') + '\x81', "test: vbyte exceeds 64 bits"},
  };
  for (const auto& c : cases) {
    Status s = ReadOneVByte(c.bytes);
    EXPECT_TRUE(s.IsCorruption()) << c.message;
    EXPECT_EQ(s.message(), c.message);
  }
}

TEST(ByteReaderTest, ThirtyTwoBitFieldsAreRangeChecked) {
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutVByte(UINT32_MAX);
  w.PutVByte(uint64_t{UINT32_MAX} + 1);
  ByteReader r(bytes, "test");
  uint32_t v = 0;
  ASSERT_TRUE(r.GetVByte(&v).ok());
  EXPECT_EQ(v, UINT32_MAX);
  Status s = r.GetVByte(&v);
  EXPECT_EQ(s.message(), "test: value exceeds 32 bits");
  EXPECT_EQ(v, UINT32_MAX);
}

TEST(ByteReaderTest, LengthsAndCountsAreBoundedByTheBytesLeft) {
  // A length of 2^64 - 2 wraps pos + n; the reader compares it with the
  // bytes left instead.
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutVByte(~uint64_t{0});
  w.PutBytes("abc");
  ByteReader r(bytes, "test");
  uint64_t n = 0;
  EXPECT_EQ(r.GetLength(&n).message(), "test: length exceeds the bytes left");

  bytes.clear();
  w.PutVByteString("abc");
  w.PutU32String("de");
  ByteReader strings(bytes, "test");
  std::string s;
  ASSERT_TRUE(strings.GetVByteString(&s).ok());
  EXPECT_EQ(s, "abc");
  EXPECT_TRUE(strings.CheckCount(6, 1).ok());
  EXPECT_FALSE(strings.CheckCount(7, 1).ok());
  EXPECT_FALSE(strings.CheckCount(2, 4).ok());
  ASSERT_TRUE(strings.GetU32String(&s).ok());
  EXPECT_EQ(s, "de");
  EXPECT_TRUE(strings.ExpectDone().ok());
  std::string_view view;
  EXPECT_EQ(strings.GetBytes(1, &view).message(), "test: truncated");
}

TEST(ByteWriterTest, FixedWidthIsLittleEndian) {
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutU8(0x01);
  w.PutU16(0x0302);
  w.PutU32(0x07060504);
  w.PutU64(0x0f0e0d0c0b0a0908);
  w.PutDouble(1.0);
  EXPECT_EQ(bytes, std::string("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"
                               "\x0b\x0c\x0d\x0e\x0f"
                               "\x00\x00\x00\x00\x00\x00\xf0\x3f",
                               23));
  ByteReader r(bytes, "test");
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  ASSERT_TRUE(r.GetU8(&u8).ok() && r.GetU16(&u16).ok() &&
              r.GetU32(&u32).ok() && r.GetU64(&u64).ok() &&
              r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 0x01);
  EXPECT_EQ(u16, 0x0302);
  EXPECT_EQ(u32, 0x07060504u);
  EXPECT_EQ(u64, 0x0f0e0d0c0b0a0908u);
  EXPECT_EQ(d, 1.0);
  EXPECT_EQ(r.GetU8(&u8).message(), "test: truncated");
}

TEST(FileFrameTest, ChecksMagicAndChecksum) {
  constexpr std::string_view kMagic("TESTFMT\0", 8);
  constexpr std::string_view kOther("OTHERFM\0", 8);
  std::string file;
  FileWriter w(&file, kMagic);
  w.PutBytes("body");
  w.Finish();
  ASSERT_EQ(file.size(), 8u + 4u + 4u);
  std::string_view body;
  ASSERT_TRUE(OpenFile(file, "test", {kOther, kMagic}, &body).ok());
  EXPECT_EQ(body, "body");

  EXPECT_EQ(OpenFile(file.substr(0, 11), "test", {kMagic}, &body).message(),
            "test: too short");
  EXPECT_EQ(OpenFile(file, "test", {kOther}, &body).message(),
            "test: bad magic");
  std::string bad = file;
  bad[9] ^= 1;
  EXPECT_EQ(OpenFile(bad, "test", {kMagic}, &body).message(),
            "test: checksum mismatch");
}

TEST(FixedCodeTest, RoundTrip) {
  BitWriter w;
  EncodeFixed(&w, 1, 1);
  EncodeFixed(&w, 256, 8);
  EncodeFixed(&w, 1000, 16);
  EncodeFixed(&w, uint64_t{1} << 31, 32);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(DecodeFixed(&r, 1), 1u);
  EXPECT_EQ(DecodeFixed(&r, 8), 256u);
  EXPECT_EQ(DecodeFixed(&r, 16), 1000u);
  EXPECT_EQ(DecodeFixed(&r, 32), uint64_t{1} << 31);
}

TEST(FixedCodeTest, WidthFor) {
  EXPECT_EQ(FixedWidthFor(1), 1);
  EXPECT_EQ(FixedWidthFor(2), 1);
  EXPECT_EQ(FixedWidthFor(3), 2);
  EXPECT_EQ(FixedWidthFor(256), 8);
  EXPECT_EQ(FixedWidthFor(257), 9);
}

TEST(CodeFamilyTest, GammaBeatsUnaryBeyondSmall) {
  EXPECT_LT(GammaBits(100), UnaryBits(100));
  EXPECT_EQ(UnaryBits(1), GammaBits(1));
}

TEST(CodeFamilyTest, GolombNearEntropyForGeometricGaps) {
  // For geometric gaps with mean ~32, optimal Golomb should use fewer
  // bits than gamma on average.
  uint64_t golomb_total = 0, gamma_total = 0;
  uint64_t b = OptimalGolombParameter(1000, 32000);
  for (uint64_t v = 1; v <= 64; ++v) {
    golomb_total += GolombBits(v, b);
    gamma_total += GammaBits(v);
  }
  EXPECT_LT(golomb_total, gamma_total);
}

}  // namespace
}  // namespace cafe::coding
