#include "collection/collection.h"

#include <gtest/gtest.h>

#include "coding/byte_io.h"
#include "coding/elias.h"
#include "seqstore/direct_coding.h"
#include "sim/generator.h"
#include "util/bitio.h"
#include "util/env.h"

namespace cafe {
namespace {

SequenceCollection MakeSample() {
  SequenceCollection col;
  EXPECT_TRUE(col.Add("s0", "first", "ACGTACGT").ok());
  EXPECT_TRUE(col.Add("s1", "", "NNNACGT").ok());
  EXPECT_TRUE(col.Add("s2", "third record", "T").ok());
  return col;
}

TEST(CollectionTest, AddAndGet) {
  SequenceCollection col = MakeSample();
  EXPECT_EQ(col.NumSequences(), 3u);
  EXPECT_EQ(col.TotalBases(), 16u);
  std::string seq;
  ASSERT_TRUE(col.GetSequence(0, &seq).ok());
  EXPECT_EQ(seq, "ACGTACGT");
  ASSERT_TRUE(col.GetSequence(1, &seq).ok());
  EXPECT_EQ(seq, "NNNACGT");
  EXPECT_EQ(col.Name(0), "s0");
  EXPECT_EQ(col.Name(2), "s2");
  EXPECT_EQ(col.Description(2), "third record");
  EXPECT_EQ(col.Description(1), "");
}

TEST(CollectionTest, IdsAreDense) {
  SequenceCollection col;
  Result<uint32_t> a = col.Add("a", "", "ACGT");
  Result<uint32_t> b = col.Add("b", "", "ACGT");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
}

TEST(CollectionTest, OutOfRangeAccessors) {
  SequenceCollection col = MakeSample();
  std::string seq;
  EXPECT_TRUE(col.GetSequence(99, &seq).IsNotFound());
  EXPECT_EQ(col.Name(99), "");
  EXPECT_EQ(col.Description(99), "");
  EXPECT_TRUE(col.SequenceLength(99).status().IsNotFound());
}

TEST(CollectionTest, SequenceLength) {
  SequenceCollection col = MakeSample();
  Result<size_t> len = col.SequenceLength(1);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 7u);
}

TEST(CollectionTest, RejectsEmptyId) {
  SequenceCollection col;
  EXPECT_TRUE(col.Add("", "", "ACGT").status().IsInvalidArgument());
}

TEST(CollectionTest, RejectsInvalidSequence) {
  SequenceCollection col;
  EXPECT_TRUE(col.Add("a", "", "AC-GT").status().IsInvalidArgument());
  EXPECT_EQ(col.NumSequences(), 0u);
}

TEST(CollectionTest, FromFasta) {
  std::vector<FastaRecord> recs = {
      {"r1", "one", "ACGT"},
      {"r2", "two", "TTTTNN"},
  };
  Result<SequenceCollection> col = SequenceCollection::FromFasta(recs);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->NumSequences(), 2u);
  std::string seq;
  ASSERT_TRUE(col->GetSequence(1, &seq).ok());
  EXPECT_EQ(seq, "TTTTNN");
  EXPECT_EQ(col->Name(0), "r1");
}

// Every sequence, name and description, byte for byte.
void ExpectSameCollection(const SequenceCollection& a,
                          const SequenceCollection& b) {
  ASSERT_EQ(a.NumSequences(), b.NumSequences());
  EXPECT_EQ(a.TotalBases(), b.TotalBases());
  uint64_t bases = 0;
  std::string sa, sb;
  for (uint32_t i = 0; i < a.NumSequences(); ++i) {
    ASSERT_TRUE(a.GetSequence(i, &sa).ok());
    ASSERT_TRUE(b.GetSequence(i, &sb).ok());
    EXPECT_EQ(sa, sb) << i;
    EXPECT_EQ(a.Name(i), b.Name(i));
    EXPECT_EQ(a.Description(i), b.Description(i));
    bases += sb.size();
  }
  EXPECT_EQ(b.TotalBases(), bases);
}

SequenceCollection RoundTrip(const SequenceCollection& col) {
  std::string data;
  col.Serialize(&data);
  Result<SequenceCollection> back = SequenceCollection::Deserialize(data);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.ok() ? std::move(*back) : SequenceCollection();
}

TEST(CollectionTest, SerializeRoundTrip) {
  SequenceCollection col = MakeSample();
  ExpectSameCollection(col, RoundTrip(col));
}

TEST(CollectionTest, SerializeRoundTripKeepsEmptySequencesAndWildcards) {
  SequenceCollection col;
  for (const char* seq : {"ACGT", "NNNACGTNNN", "", "T", "ACGTACGTACGTACG",
                          "ACGRYSWKMBDHVNT", ""}) {
    ASSERT_TRUE(col.Add("id", "desc", seq).ok());
  }
  ExpectSameCollection(col, RoundTrip(col));
}

TEST(CollectionTest, GeneratedCollectionRoundTrips) {
  sim::CollectionOptions copt;
  copt.target_bases = 200000;
  copt.wildcard_rate = 0.002;
  copt.seed = 31;
  Result<SequenceCollection> col = sim::CollectionGenerator(copt).Generate();
  ASSERT_TRUE(col.ok());
  ExpectSameCollection(*col, RoundTrip(*col));
}

TEST(CollectionTest, DeserializeDetectsCorruption) {
  SequenceCollection col = MakeSample();
  std::string data;
  col.Serialize(&data);

  std::string bad = data;
  bad[10] ^= 0x01;
  EXPECT_TRUE(SequenceCollection::Deserialize(bad).status().IsCorruption());
  bad = data;
  bad[bad.size() / 2] ^= 0x40;
  EXPECT_TRUE(SequenceCollection::Deserialize(bad).status().IsCorruption());
  EXPECT_TRUE(SequenceCollection::Deserialize(
                  std::string_view(data).substr(0, data.size() - 3))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(SequenceCollection::Deserialize("short").status().IsCorruption());
  EXPECT_TRUE(SequenceCollection::Deserialize("").status().IsCorruption());
  bad = data;
  bad[1] = 'z';
  EXPECT_TRUE(SequenceCollection::Deserialize(bad).status().IsCorruption());
}

TEST(CollectionTest, SaveLoad) {
  std::string path = TempDir() + "/cafe_collection_test.bin";
  SequenceCollection col = MakeSample();
  ASSERT_TRUE(col.Save(path).ok());
  Result<SequenceCollection> back = SequenceCollection::Load(path);
  ASSERT_TRUE(back.ok());
  ExpectSameCollection(col, *back);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(CollectionTest, LoadMissingFileIsIOError) {
  EXPECT_TRUE(SequenceCollection::Load("/nonexistent/cafe.bin")
                  .status()
                  .IsIOError());
}

// ---- Crafted files -------------------------------------------------

constexpr std::string_view kMagic("CAFCOL2\0", 8);

// A collection file holding one record, "s", whose sequence is `blob`.
std::string OneRecordFile(const std::vector<uint8_t>& blob) {
  std::string file;
  coding::FileWriter w(&file, kMagic);
  w.PutVByte(1 + 1);
  w.PutVByteString("s");
  w.PutVByteString("");
  w.PutVByte(blob.size() + 1);
  w.PutBytes(blob);
  w.Finish();
  return file;
}

// "ACNGT" as DirectEncodeAppend writes it: gamma(6) gamma(2), the N's
// position as Golomb(3; b = 3), its mask 1111 and one pad bit, then
// A C A G (the N slot holds A) and T.
const std::vector<uint8_t> kAcngt = {0b00110'010, 0b111'1111'0,
                                     0b00'01'00'10, 0b11'00'00'00};

TEST(CollectionTest, CraftedFileMatchesTheWriter) {
  std::vector<uint8_t> blob;
  ASSERT_TRUE(DirectEncodeAppend("ACNGT", &blob).ok());
  ASSERT_EQ(blob, kAcngt);
  SequenceCollection col;
  ASSERT_TRUE(col.Add("s", "", "ACNGT").ok());
  std::string data;
  col.Serialize(&data);
  EXPECT_EQ(data, OneRecordFile(kAcngt));
}

TEST(CollectionTest, ZeroMaskIsCorruptionAtLoad) {
  std::vector<uint8_t> blob = kAcngt;
  blob[1] = 0b111'0000'0;
  Status s = SequenceCollection::Deserialize(OneRecordFile(blob)).status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CollectionTest, WrappedLengthIsCorruptionAtLoad) {
  // gamma(2^64 - 1), gamma(1): a 16-byte header claiming 2^64 - 2 bases.
  BitWriter w;
  coding::EncodeGamma(&w, ~uint64_t{0});
  coding::EncodeGamma(&w, 1);
  Status s =
      SequenceCollection::Deserialize(OneRecordFile(w.Finish())).status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CollectionTest, VersionOneFileIsBadMagic) {
  // The CAFCOL1 layout: the names, then a whole CAFSEQ1 store file
  // (count, total bases, blob size, offset table, blob, its own CRC).
  std::string store;
  coding::FileWriter sw(&store, std::string_view("CAFSEQ1\0", 8));
  for (uint64_t v : {uint64_t{1}, uint64_t{5}, uint64_t{kAcngt.size()},
                     uint64_t{0}, uint64_t{kAcngt.size()}}) {
    sw.PutU64(v);
  }
  sw.PutBytes(kAcngt);
  sw.Finish();
  std::string file;
  coding::FileWriter w(&file, std::string_view("CAFCOL1\0", 8));
  w.PutVByte(1 + 1);
  w.PutVByteString("s");
  w.PutVByteString("");
  w.PutBytes(store);
  w.Finish();
  EXPECT_EQ(SequenceCollection::Deserialize(file).status().ToString(),
            Status::Corruption("collection: bad magic").ToString());
}

TEST(CollectionTest, StorageBytesAccountsNames) {
  SequenceCollection col = MakeSample();
  EXPECT_GT(col.StorageBytes(), 0u);
  EXPECT_GE(col.StorageBytes(), col.store().StorageBytes());
}

TEST(CollectionTest, EmptyCollectionSerializes) {
  SequenceCollection col;
  std::string data;
  col.Serialize(&data);
  Result<SequenceCollection> back = SequenceCollection::Deserialize(data);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumSequences(), 0u);
}

}  // namespace
}  // namespace cafe
