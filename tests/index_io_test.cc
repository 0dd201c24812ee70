#include <gtest/gtest.h>

#include "collection/collection.h"
#include "index/interval.h"
#include "index/inverted_index.h"
#include "sim/generator.h"
#include "util/crc32.h"
#include "util/env.h"

namespace cafe {
namespace {

Result<SequenceCollection> TestCollection() {
  sim::CollectionOptions copt;
  copt.num_sequences = 25;
  copt.length_mu = 5.5;
  copt.length_sigma = 0.5;
  copt.wildcard_rate = 0.01;
  copt.seed = 21;
  sim::CollectionGenerator gen(copt);
  return gen.Generate();
}

void ExpectIndexesEqual(const InvertedIndex& a, const InvertedIndex& b) {
  EXPECT_EQ(a.options().interval_length, b.options().interval_length);
  EXPECT_EQ(a.options().stride, b.options().stride);
  EXPECT_EQ(a.options().granularity, b.options().granularity);
  EXPECT_EQ(a.num_docs(), b.num_docs());
  EXPECT_EQ(a.doc_lengths(), b.doc_lengths());
  EXPECT_EQ(a.stats().num_terms, b.stats().num_terms);
  EXPECT_EQ(a.stats().total_postings, b.stats().total_postings);

  a.directory().ForEachTerm([&](uint32_t term, const TermEntry& ea) {
    const TermEntry* eb = b.FindTerm(term);
    ASSERT_NE(eb, nullptr) << "term " << term;
    EXPECT_EQ(ea.doc_count, eb->doc_count);
    EXPECT_EQ(ea.posting_count, eb->posting_count);
    EXPECT_EQ(ea.position_param, eb->position_param);
    EXPECT_EQ(ea.bit_offset, eb->bit_offset);

    std::vector<std::tuple<uint32_t, uint32_t, std::vector<uint32_t>>> pa, pb;
    auto collect = [](auto& out) {
      return [&out](uint32_t doc, uint32_t tf, const uint32_t* pos,
                    uint32_t npos) {
        std::vector<uint32_t> p;
        if (pos != nullptr) p.assign(pos, pos + npos);
        out.emplace_back(doc, tf, std::move(p));
      };
    };
    a.ForEachPosting(term, collect(pa));
    b.ForEachPosting(term, collect(pb));
    EXPECT_EQ(pa, pb);
  });
}

TEST(IndexIoTest, SerializeDeserializeRoundTrip) {
  Result<SequenceCollection> col = TestCollection();
  ASSERT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  ASSERT_TRUE(index.ok());

  std::string data;
  index->Serialize(&data);
  Result<InvertedIndex> back = InvertedIndex::Deserialize(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectIndexesEqual(*index, *back);
}

TEST(IndexIoTest, RoundTripDocumentGranularity) {
  Result<SequenceCollection> col = TestCollection();
  ASSERT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 6;
  options.granularity = IndexGranularity::kDocument;
  options.stride = 2;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  ASSERT_TRUE(index.ok());

  std::string data;
  index->Serialize(&data);
  Result<InvertedIndex> back = InvertedIndex::Deserialize(data);
  ASSERT_TRUE(back.ok());
  ExpectIndexesEqual(*index, *back);
}

TEST(IndexIoTest, RoundTripSpacedSeedUsesV2Magic) {
  Result<SequenceCollection> col = TestCollection();
  ASSERT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 5;
  options.spaced_seed = "1101011";
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  std::string data;
  index->Serialize(&data);
  // Spaced-seed indexes carry the pattern in the header, which needs
  // the v2 magic; default indexes must keep writing v1 bytes so their
  // serialized form is unchanged (see index_io.cc).
  ASSERT_GE(data.size(), 8u);
  EXPECT_EQ(data.substr(0, 7), "CAFIDX2");
  Result<InvertedIndex> back = InvertedIndex::Deserialize(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->options().spaced_seed, "1101011");
  ExpectIndexesEqual(*index, *back);
}

TEST(IndexIoTest, DefaultIndexKeepsV1Magic) {
  Result<SequenceCollection> col = TestCollection();
  ASSERT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  ASSERT_TRUE(index.ok());
  std::string data;
  index->Serialize(&data);
  ASSERT_GE(data.size(), 8u);
  EXPECT_EQ(data.substr(0, 7), "CAFIDX1");
}

TEST(IndexIoTest, SaveLoadFile) {
  Result<SequenceCollection> col = TestCollection();
  ASSERT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  ASSERT_TRUE(index.ok());

  std::string path = TempDir() + "/cafe_index_io_test.idx";
  ASSERT_TRUE(index->Save(path).ok());
  Result<InvertedIndex> back = InvertedIndex::Load(path);
  ASSERT_TRUE(back.ok());
  ExpectIndexesEqual(*index, *back);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(IndexIoTest, DetectsCorruption) {
  Result<SequenceCollection> col = TestCollection();
  ASSERT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  ASSERT_TRUE(index.ok());
  std::string data;
  index->Serialize(&data);

  std::string bad = data;
  bad[data.size() / 2] ^= 0x10;
  EXPECT_TRUE(InvertedIndex::Deserialize(bad).status().IsCorruption());

  EXPECT_TRUE(InvertedIndex::Deserialize(
                  std::string_view(data).substr(0, data.size() / 2))
                  .status()
                  .IsCorruption());

  bad = data;
  bad[3] = '?';
  EXPECT_TRUE(InvertedIndex::Deserialize(bad).status().IsCorruption());
  EXPECT_TRUE(InvertedIndex::Deserialize("").status().IsCorruption());
}

// Each file format's bytes for a fixed input, pinned by size and
// CRC-32: a change to the writers must keep every file byte-identical.
TEST(IndexIoTest, FileBytesArePinned) {
  SequenceCollection col;
  ASSERT_TRUE(col.Add("s0", "first", "ACGTACGTTTGACCAGTNACGTACGA").ok());
  ASSERT_TRUE(col.Add("s1", "", "GGCATTACGTACGAACGTRYACG").ok());
  IndexOptions options;
  options.interval_length = 4;
  Result<InvertedIndex> contiguous = IndexBuilder::Build(col, options);
  ASSERT_TRUE(contiguous.ok());
  options.spaced_seed = "110101";
  options.granularity = IndexGranularity::kDocument;
  Result<InvertedIndex> spaced = IndexBuilder::Build(col, options);
  ASSERT_TRUE(spaced.ok());

  // The CRC of a whole file, trailer included, is a constant residue.
  const auto pin = [](const std::string& bytes) {
    return std::to_string(bytes.size()) + " bytes, crc " +
           std::to_string(Crc32(bytes.data(), bytes.size() - 4));
  };
  std::string data;
  col.Serialize(&data);
  EXPECT_EQ(pin(data), "47 bytes, crc 1587373839");
  contiguous->Serialize(&data);
  EXPECT_EQ(pin(data), "169 bytes, crc 453130482");
  spaced->Serialize(&data);
  EXPECT_EQ(pin(data), "162 bytes, crc 4198589947");
}

TEST(IndexIoTest, SerializedBytesMatchesSerializeOutput) {
  Result<SequenceCollection> col = TestCollection();
  ASSERT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  ASSERT_TRUE(index.ok());
  uint64_t reported = index->SerializedBytes();
  std::string data;
  index->Serialize(&data);
  EXPECT_EQ(reported, data.size());
}

TEST(IndexIoTest, LoadedIndexAnswersQueries) {
  Result<SequenceCollection> col = TestCollection();
  ASSERT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  ASSERT_TRUE(index.ok());

  std::string data;
  index->Serialize(&data);
  Result<InvertedIndex> back = InvertedIndex::Deserialize(data);
  ASSERT_TRUE(back.ok());

  // Query a term known to exist: take the first sequence's first interval.
  std::string seq;
  ASSERT_TRUE(col->GetSequence(0, &seq).ok());
  bool any = false;
  int64_t term = -1;
  for (size_t i = 0; i + 8 <= seq.size() && term < 0; ++i) {
    term = EncodeInterval(seq.substr(i), 8);
  }
  ASSERT_GE(term, 0) << "test sequence should contain a wildcard-free 8-mer";
  back->ForEachPosting(static_cast<uint32_t>(term),
                       [&](uint32_t doc, uint32_t, const uint32_t*,
                           uint32_t) { any |= (doc == 0); });
  EXPECT_TRUE(any);
}

}  // namespace
}  // namespace cafe
