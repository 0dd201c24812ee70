#include "seqstore/direct_coding.h"

#include <gtest/gtest.h>

#include "alphabet/nucleotide.h"
#include "coding/elias.h"
#include "coding/golomb.h"
#include "util/bitio.h"
#include "util/random.h"

namespace cafe {
namespace {

std::string RoundTrip(const std::string& seq) {
  std::vector<uint8_t> buf;
  Status s = DirectEncodeAppend(seq, &buf);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::string out;
  s = DirectDecode(buf.data(), buf.size(), &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(DirectCodingTest, EmptySequence) {
  EXPECT_EQ(RoundTrip(""), "");
}

TEST(DirectCodingTest, ShortSequences) {
  for (const char* s : {"A", "C", "G", "T", "AC", "ACG", "ACGT", "ACGTA"}) {
    EXPECT_EQ(RoundTrip(s), s);
  }
}

TEST(DirectCodingTest, PureBases) {
  EXPECT_EQ(RoundTrip("ACGTACGTACGTACGTACGT"), "ACGTACGTACGTACGTACGT");
}

TEST(DirectCodingTest, WildcardsPreservedLosslessly) {
  EXPECT_EQ(RoundTrip("ACGTN"), "ACGTN");
  EXPECT_EQ(RoundTrip("NNNNN"), "NNNNN");
  EXPECT_EQ(RoundTrip("NACGT"), "NACGT");
  EXPECT_EQ(RoundTrip("ACGRYSWKMBDHVNT"), "ACGRYSWKMBDHVNT");
}

TEST(DirectCodingTest, WildcardAtEveryPosition) {
  std::string base = "ACGTACGTACGT";
  for (size_t i = 0; i < base.size(); ++i) {
    std::string s = base;
    s[i] = 'N';
    EXPECT_EQ(RoundTrip(s), s) << "N at " << i;
  }
}

TEST(DirectCodingTest, RejectsNonIupac) {
  std::vector<uint8_t> buf;
  Status s = DirectEncodeAppend("ACXGT", &buf);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("position 2"), std::string::npos);
}

TEST(DirectCodingTest, CompressionNearTwoBitsPerBase) {
  std::string seq(10000, 'A');
  Rng rng(5);
  for (char& c : seq) c = CodeToBase(static_cast<int>(rng.Uniform(4)));
  std::vector<uint8_t> buf;
  ASSERT_TRUE(DirectEncodeAppend(seq, &buf).ok());
  size_t bytes = buf.size();
  // 2 bits/base = 2500 bytes; header overhead must stay tiny.
  EXPECT_LT(bytes, 2520u);
  EXPECT_GE(bytes, 2500u);
}

TEST(DirectCodingTest, WildcardOverheadModest) {
  std::string seq(10000, 'A');
  Rng rng(6);
  for (char& c : seq) c = CodeToBase(static_cast<int>(rng.Uniform(4)));
  // GenBank-like 0.02% wildcards.
  for (size_t i = 0; i < seq.size(); i += 500) seq[i] = 'N';
  std::vector<uint8_t> buf;
  ASSERT_TRUE(DirectEncodeAppend(seq, &buf).ok());
  EXPECT_LT(buf.size(), 2600u);
  EXPECT_EQ(RoundTrip(seq), seq);
}

TEST(DirectCodingTest, DecodeLengthWithoutPayload) {
  std::vector<uint8_t> buf;
  ASSERT_TRUE(DirectEncodeAppend("ACGTNACGT", &buf).ok());
  size_t len = 0;
  ASSERT_TRUE(DirectDecodeLength(buf.data(), buf.size(), &len).ok());
  EXPECT_EQ(len, 9u);
}

TEST(DirectCodingTest, ConcatenatedSequencesSliced) {
  std::vector<uint8_t> buf;
  std::vector<size_t> offsets = {0};
  std::vector<std::string> seqs = {"ACGT", "NNNACGTNNN", "T",
                                   "ACGTACGTACGTACG"};
  for (const auto& s : seqs) {
    ASSERT_TRUE(DirectEncodeAppend(s, &buf).ok());
    offsets.push_back(buf.size());
  }
  for (size_t i = 0; i < seqs.size(); ++i) {
    std::string out;
    ASSERT_TRUE(DirectDecode(buf.data() + offsets[i],
                             offsets[i + 1] - offsets[i], &out)
                    .ok());
    EXPECT_EQ(out, seqs[i]);
  }
}

TEST(DirectCodingTest, TruncatedPayloadDetected) {
  std::vector<uint8_t> buf;
  ASSERT_TRUE(DirectEncodeAppend("ACGTACGTACGTACGTACGT", &buf).ok());
  std::string out;
  Status s = DirectDecode(buf.data(), buf.size() - 2, &out);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(DirectCodingTest, EmptyBufferDetected) {
  std::string out;
  Status s = DirectDecode(nullptr, 0, &out);
  EXPECT_TRUE(s.IsCorruption());
}

// Every decoder reads the header through one parser, so each rejects a
// malformed header alike.
void ExpectCorruptHeader(const std::vector<uint8_t>& buf) {
  std::string out;
  EXPECT_TRUE(DirectDecode(buf.data(), buf.size(), &out).IsCorruption());
  size_t length = 0, payload_offset = 0;
  EXPECT_TRUE(DirectLocatePayload(buf.data(), buf.size(), &length,
                                  &payload_offset)
                  .IsCorruption());
  EXPECT_TRUE(DirectDecodeLength(buf.data(), buf.size(), &length)
                  .IsCorruption());
}

TEST(DirectCodingTest, LengthThatWrapsIsCorruption) {
  // gamma(2^64 - 1), gamma(1): 2^64 - 2 bases and no wildcards, in 16
  // bytes. (n + 3) / 4 wraps to 0, so only n > 4 x left rejects it.
  BitWriter w;
  coding::EncodeGamma(&w, ~uint64_t{0});
  coding::EncodeGamma(&w, 1);
  std::vector<uint8_t> buf = w.Finish();
  ASSERT_EQ(buf.size(), 16u);
  ExpectCorruptHeader(buf);
}

TEST(DirectCodingTest, PayloadBoundIsExact) {
  std::vector<uint8_t> buf;
  ASSERT_TRUE(DirectEncodeAppend("ACGTACGTA", &buf).ok());  // 3 bytes
  size_t length = 0, payload_offset = 0;
  ASSERT_TRUE(DirectLocatePayload(buf.data(), buf.size(), &length,
                                  &payload_offset)
                  .ok());
  EXPECT_EQ(length, 9u);
  EXPECT_EQ(payload_offset + 3, buf.size());
  buf.pop_back();
  ExpectCorruptHeader(buf);
}

// "ACNGT" laid out as DirectEncodeAppend writes it, with the N's 4-bit
// IUPAC mask replaced by `mask`.
std::vector<uint8_t> AcngtWithMask(uint8_t mask) {
  BitWriter w;
  coding::EncodeGamma(&w, 5 + 1);
  coding::EncodeGamma(&w, 1 + 1);
  coding::EncodeGolomb(&w, 3, coding::OptimalGolombParameter(1, 5));
  w.WriteBits(mask, 4);
  w.AlignToByte();
  w.WriteBits(0b00'01'00'10, 8);  // A C A G: the N slot holds A
  w.WriteBits(0b11'00'00'00, 8);  // T
  return w.Finish();
}

TEST(DirectCodingTest, ZeroMaskIsCorruption) {
  std::vector<uint8_t> good;
  ASSERT_TRUE(DirectEncodeAppend("ACNGT", &good).ok());
  ASSERT_EQ(AcngtWithMask(IupacMask('N')), good);
  ExpectCorruptHeader(AcngtWithMask(0));
}

TEST(DirectCodingPropertyTest, RandomRoundTrip) {
  Rng rng(77);
  const std::string wildcards = "NRYSWKMBDHV";
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.Uniform(500);
    std::string seq(len, 'A');
    for (char& c : seq) {
      if (rng.Bernoulli(0.05)) {
        c = wildcards[rng.Uniform(wildcards.size())];
      } else {
        c = CodeToBase(static_cast<int>(rng.Uniform(4)));
      }
    }
    EXPECT_EQ(RoundTrip(seq), seq);
  }
}

TEST(DirectCodingPropertyTest, LocatedPayloadEndsTheEncoding) {
  Rng rng(88);
  for (int trial = 0; trial < 50; ++trial) {
    size_t len = rng.Uniform(300);
    std::string seq(len, 'A');
    for (char& c : seq) {
      c = rng.Bernoulli(0.02) ? 'N'
                              : CodeToBase(static_cast<int>(rng.Uniform(4)));
    }
    std::vector<uint8_t> buf;
    ASSERT_TRUE(DirectEncodeAppend(seq, &buf).ok());
    size_t length = 0, payload_offset = 0;
    ASSERT_TRUE(DirectLocatePayload(buf.data(), buf.size(), &length,
                                    &payload_offset)
                    .ok());
    EXPECT_EQ(length, len);
    EXPECT_EQ(payload_offset + (len + 3) / 4, buf.size());
  }
}

}  // namespace
}  // namespace cafe
