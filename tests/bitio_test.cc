#include "util/bitio.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace cafe {
namespace {

TEST(BitWriterTest, EmptyFinish) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  EXPECT_TRUE(w.Finish().empty());
}

TEST(BitWriterTest, SingleBits) {
  BitWriter w;
  w.WriteBit(true);
  w.WriteBit(false);
  w.WriteBit(true);
  w.WriteBit(true);
  EXPECT_EQ(w.bit_count(), 4u);
  std::vector<uint8_t> out = w.Finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0b10110000);
}

TEST(BitWriterTest, ByteAlignedValue) {
  BitWriter w;
  w.WriteBits(0xAB, 8);
  std::vector<uint8_t> out = w.Finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0xAB);
}

TEST(BitWriterTest, MultiByteMsbFirst) {
  BitWriter w;
  w.WriteBits(0x1234, 16);
  std::vector<uint8_t> out = w.Finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0x12);
  EXPECT_EQ(out[1], 0x34);
}

TEST(BitWriterTest, Full64BitValue) {
  BitWriter w;
  w.WriteBits(0xDEADBEEFCAFEF00Dull, 64);
  std::vector<uint8_t> out = w.Finish();
  ASSERT_EQ(out.size(), 8u);
  BitReader r(out);
  EXPECT_EQ(r.ReadBits(64), 0xDEADBEEFCAFEF00Dull);
}

TEST(BitWriterTest, ValueMaskedToWidth) {
  BitWriter w;
  w.WriteBits(0xFF, 4);  // only low 4 bits kept
  std::vector<uint8_t> out = w.Finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0xF0);
}

TEST(BitWriterTest, AlignToByte) {
  BitWriter w;
  w.WriteBits(1, 3);
  w.AlignToByte();
  EXPECT_EQ(w.bit_count(), 8u);
  w.WriteBits(0xFF, 8);
  std::vector<uint8_t> out = w.Finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0b00100000);
  EXPECT_EQ(out[1], 0xFF);
}

TEST(BitWriterTest, AlignWhenAlreadyAlignedIsNoop) {
  BitWriter w;
  w.WriteBits(0xAA, 8);
  w.AlignToByte();
  EXPECT_EQ(w.bit_count(), 8u);
}

TEST(BitWriterTest, ClearResets) {
  BitWriter w;
  w.WriteBits(0xFFFF, 16);
  w.Clear();
  EXPECT_EQ(w.bit_count(), 0u);
  w.WriteBits(1, 1);
  std::vector<uint8_t> out = w.Finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0x80);
}

TEST(BitReaderTest, ReadBackMixedWidths) {
  BitWriter w;
  w.WriteBits(5, 3);
  w.WriteBits(1023, 10);
  w.WriteBits(0, 2);
  w.WriteBits(77, 7);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(3), 5u);
  EXPECT_EQ(r.ReadBits(10), 1023u);
  EXPECT_EQ(r.ReadBits(2), 0u);
  EXPECT_EQ(r.ReadBits(7), 77u);
  EXPECT_FALSE(r.overflowed());
}

TEST(BitReaderTest, OverflowSetsFlagAndReturnsZero) {
  std::vector<uint8_t> bytes = {0xFF};
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(8), 0xFFu);
  EXPECT_EQ(r.ReadBits(1), 0u);
  EXPECT_TRUE(r.overflowed());
}

TEST(BitReaderTest, PartialThenOverflow) {
  std::vector<uint8_t> bytes = {0xAB};
  BitReader r(bytes);
  (void)r.ReadBits(4);
  EXPECT_EQ(r.ReadBits(8), 0u);  // crosses the end
  EXPECT_TRUE(r.overflowed());
}

TEST(BitReaderTest, SeekToBit) {
  BitWriter w;
  w.WriteBits(0b1010'1100, 8);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  r.SeekToBit(4);
  EXPECT_EQ(r.ReadBits(4), 0b1100u);
  r.SeekToBit(0);
  EXPECT_EQ(r.ReadBits(2), 0b10u);
}

TEST(BitReaderTest, SeekPastEndOverflows) {
  std::vector<uint8_t> bytes = {0x00};
  BitReader r(bytes);
  r.SeekToBit(9);
  EXPECT_TRUE(r.overflowed());
}

TEST(BitReaderTest, BitsRemaining) {
  std::vector<uint8_t> bytes = {0x00, 0x00};
  BitReader r(bytes);
  EXPECT_EQ(r.bits_remaining(), 16u);
  (void)r.ReadBits(5);
  EXPECT_EQ(r.bits_remaining(), 11u);
}

TEST(UnaryTest, RoundTripSmall) {
  BitWriter w;
  for (uint64_t v = 0; v < 20; ++v) w.WriteUnary(v);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  for (uint64_t v = 0; v < 20; ++v) {
    EXPECT_EQ(r.ReadUnary(), v) << "value " << v;
  }
  EXPECT_FALSE(r.overflowed());
}

TEST(UnaryTest, LargeCountCrossingBytes) {
  BitWriter w;
  w.WriteUnary(1000);
  w.WriteUnary(0);
  w.WriteUnary(63);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadUnary(), 1000u);
  EXPECT_EQ(r.ReadUnary(), 0u);
  EXPECT_EQ(r.ReadUnary(), 63u);
}

TEST(UnaryTest, UnaryAfterMisalignment) {
  BitWriter w;
  w.WriteBits(0, 3);
  w.WriteUnary(17);
  std::vector<uint8_t> bytes = w.Finish();
  BitReader r(bytes);
  (void)r.ReadBits(3);
  EXPECT_EQ(r.ReadUnary(), 17u);
}

TEST(UnaryTest, OverflowOnMissingTerminator) {
  std::vector<uint8_t> bytes = {0x00};  // eight zeros, no terminating 1
  BitReader r(bytes);
  (void)r.ReadUnary();
  EXPECT_TRUE(r.overflowed());
}

// Bit-by-bit reference for ReadUnary from bit `pos`: the zero bits
// before the next one bit, the position after it, and whether the
// buffer ran out first.
struct UnaryRead {
  uint64_t value = 0;
  size_t end = 0;
  bool overflowed = false;
};

UnaryRead ReferenceUnary(const std::vector<uint8_t>& bytes, size_t pos) {
  UnaryRead out;
  out.end = pos;
  while (out.end < bytes.size() * 8) {
    const bool bit = ((bytes[out.end >> 3] >> (7 - (out.end & 7))) & 1) != 0;
    ++out.end;
    if (bit) return out;
    ++out.value;
  }
  out.overflowed = true;
  return out;
}

// Four reads from every start bit of each buffer, the buffer end
// included, against the reference: runs of all-zero and all-one bytes,
// and random bytes.
TEST(UnaryTest, EveryStartOffsetMatchesBitByBitReference) {
  std::vector<std::vector<uint8_t>> buffers = {
      {0x00}, {0xFF}, {0x00, 0x00, 0x00}, {0xFF, 0xFF}, {0x01, 0x00, 0x80}};
  Rng rng(4321);
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> bytes(1 + rng.Uniform(6));
    for (uint8_t& byte : bytes) {
      const uint64_t kind = rng.Uniform(4);
      byte = kind == 0   ? 0x00
             : kind == 1 ? 0xFF
                         : static_cast<uint8_t>(rng.Uniform(256));
    }
    buffers.push_back(std::move(bytes));
  }
  for (const std::vector<uint8_t>& bytes : buffers) {
    for (size_t start = 0; start <= bytes.size() * 8; ++start) {
      BitReader r(bytes);
      r.SeekToBit(start);
      UnaryRead want;
      want.end = start;
      for (int read = 0; read < 4; ++read) {
        const bool overflowed = want.overflowed;
        want = ReferenceUnary(bytes, want.end);
        want.overflowed = want.overflowed || overflowed;
        ASSERT_EQ(r.ReadUnary(), want.value) << "start " << start;
        ASSERT_EQ(r.bit_position(), want.end) << "start " << start;
        ASSERT_EQ(r.overflowed(), want.overflowed) << "start " << start;
      }
    }
  }
}

TEST(BitIoPropertyTest, RandomRoundTrip) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<uint64_t, int>> values;
    BitWriter w;
    size_t count = 1 + rng.Uniform(200);
    for (size_t i = 0; i < count; ++i) {
      int width = 1 + static_cast<int>(rng.Uniform(64));
      uint64_t v = rng.Next();
      if (width < 64) v &= (uint64_t{1} << width) - 1;
      values.emplace_back(v, width);
      w.WriteBits(v, width);
    }
    std::vector<uint8_t> bytes = w.Finish();
    BitReader r(bytes);
    for (const auto& [v, width] : values) {
      EXPECT_EQ(r.ReadBits(width), v);
    }
    EXPECT_FALSE(r.overflowed());
  }
}

}  // namespace
}  // namespace cafe
