#include "seqstore/sequence_store.h"

#include <gtest/gtest.h>

#include "alphabet/nucleotide.h"
#include "seqstore/plain_store.h"
#include "util/random.h"

namespace cafe {
namespace {

std::vector<std::string> SampleSequences() {
  return {"ACGT", "NNNACGTNNN", "T", "ACGTACGTACGTACG",
          "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG", ""};
}

TEST(SequenceStoreTest, AppendAssignsDenseIds) {
  SequenceStore store;
  for (uint32_t i = 0; i < 5; ++i) {
    Result<uint32_t> id = store.Append("ACGT");
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, i);
  }
  EXPECT_EQ(store.NumSequences(), 5u);
  EXPECT_EQ(store.TotalBases(), 20u);
}

TEST(SequenceStoreTest, GetRoundTrip) {
  SequenceStore store;
  auto seqs = SampleSequences();
  for (const auto& s : seqs) ASSERT_TRUE(store.Append(s).ok());
  for (uint32_t i = 0; i < seqs.size(); ++i) {
    std::string out;
    ASSERT_TRUE(store.Get(i, &out).ok());
    EXPECT_EQ(out, seqs[i]) << i;
  }
}

TEST(SequenceStoreTest, RandomAccessOrderIndependent) {
  SequenceStore store;
  auto seqs = SampleSequences();
  for (const auto& s : seqs) ASSERT_TRUE(store.Append(s).ok());
  // Access in reverse and repeatedly.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t i = static_cast<uint32_t>(seqs.size()); i-- > 0;) {
      std::string out;
      ASSERT_TRUE(store.Get(i, &out).ok());
      EXPECT_EQ(out, seqs[i]);
    }
  }
}

TEST(SequenceStoreTest, LengthWithoutDecode) {
  SequenceStore store;
  ASSERT_TRUE(store.Append("ACGTNACGTA").ok());
  Result<size_t> len = store.Length(0);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 10u);
}

TEST(SequenceStoreTest, OutOfRangeIdIsNotFound) {
  SequenceStore store;
  ASSERT_TRUE(store.Append("ACGT").ok());
  std::string out;
  EXPECT_TRUE(store.Get(1, &out).IsNotFound());
  EXPECT_TRUE(store.Length(7).status().IsNotFound());
}

TEST(SequenceStoreTest, RejectsInvalidSequence) {
  SequenceStore store;
  EXPECT_TRUE(store.Append("AC!GT").status().IsInvalidArgument());
  EXPECT_EQ(store.NumSequences(), 0u);
}

TEST(SequenceStoreTest, FromBlobRebuildsTheStore) {
  SequenceStore store;
  auto seqs = SampleSequences();
  for (const auto& s : seqs) ASSERT_TRUE(store.Append(s).ok());
  Result<SequenceStore> back =
      SequenceStore::FromBlob(store.blob(), store.NumSequences());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumSequences(), store.NumSequences());
  EXPECT_EQ(back->TotalBases(), store.TotalBases());
  EXPECT_EQ(back->StorageBytes(), store.StorageBytes());
  for (uint32_t i = 0; i < seqs.size(); ++i) {
    std::string out;
    ASSERT_TRUE(back->Get(i, &out).ok());
    EXPECT_EQ(out, seqs[i]);
  }
}

TEST(SequenceStoreTest, FromBlobNeedsTheExactCount) {
  SequenceStore store;
  for (const auto& s : SampleSequences()) ASSERT_TRUE(store.Append(s).ok());
  const uint64_t n = store.NumSequences();
  // One fewer leaves bytes after the last sequence; one more runs past
  // the blob.
  EXPECT_TRUE(
      SequenceStore::FromBlob(store.blob(), n - 1).status().IsCorruption());
  EXPECT_TRUE(
      SequenceStore::FromBlob(store.blob(), n + 1).status().IsCorruption());
  EXPECT_TRUE(SequenceStore::FromBlob(store.blob().first(3), n)
                  .status()
                  .IsCorruption());
  Result<SequenceStore> empty = SequenceStore::FromBlob({}, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumSequences(), 0u);
}

TEST(SequenceStoreTest, CompressionBeatsPlainStore) {
  Rng rng(3);
  SequenceStore packed;
  PlainSequenceStore plain;
  for (int i = 0; i < 50; ++i) {
    std::string seq(1000, 'A');
    for (char& c : seq) c = CodeToBase(static_cast<int>(rng.Uniform(4)));
    ASSERT_TRUE(packed.Append(seq).ok());
    ASSERT_TRUE(plain.Append(seq).ok());
  }
  // Direct coding stores ~2 bits/base vs 8: expect close to 4x smaller.
  EXPECT_LT(packed.StorageBytes() * 3, plain.StorageBytes());
}

TEST(PlainStoreTest, BasicRoundTrip) {
  PlainSequenceStore store;
  auto seqs = SampleSequences();
  for (const auto& s : seqs) ASSERT_TRUE(store.Append(s).ok());
  EXPECT_EQ(store.NumSequences(), seqs.size());
  for (uint32_t i = 0; i < seqs.size(); ++i) {
    std::string out;
    ASSERT_TRUE(store.Get(i, &out).ok());
    EXPECT_EQ(out, seqs[i]);
    Result<size_t> len = store.Length(i);
    ASSERT_TRUE(len.ok());
    EXPECT_EQ(*len, seqs[i].size());
  }
}

TEST(PlainStoreTest, RejectsInvalidAndOutOfRange) {
  PlainSequenceStore store;
  EXPECT_TRUE(store.Append("AC GT").status().IsInvalidArgument());
  std::string out;
  EXPECT_TRUE(store.Get(0, &out).IsNotFound());
}

TEST(StoreInterfaceTest, PolymorphicUse) {
  SequenceStore packed;
  PlainSequenceStore plain;
  for (SequenceStoreInterface* store :
       std::vector<SequenceStoreInterface*>{&packed, &plain}) {
    ASSERT_TRUE(store->Append("ACGTN").ok());
    std::string out;
    ASSERT_TRUE(store->Get(0, &out).ok());
    EXPECT_EQ(out, "ACGTN");
    EXPECT_EQ(store->TotalBases(), 5u);
  }
}

}  // namespace
}  // namespace cafe
