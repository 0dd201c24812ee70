#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <map>

#include "collection/collection.h"
#include "index/interval.h"
#include "sim/generator.h"

namespace cafe {
namespace {

SequenceCollection SmallCollection() {
  SequenceCollection col;
  EXPECT_TRUE(col.Add("a", "", "ACGTACGTAC").ok());
  EXPECT_TRUE(col.Add("b", "", "TTTTACGTTTTT").ok());
  EXPECT_TRUE(col.Add("c", "", "GGGGGGGG").ok());
  EXPECT_TRUE(col.Add("d", "", "ACGNNACGT").ok());
  return col;
}

// Brute-force positional index for cross-checking.
std::map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>> BruteForce(
    const SequenceCollection& col, int n, uint32_t stride) {
  std::map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>> ref;
  std::string seq;
  for (uint32_t doc = 0; doc < col.NumSequences(); ++doc) {
    EXPECT_TRUE(col.GetSequence(doc, &seq).ok());
    ForEachInterval(seq, n, stride, [&](uint32_t pos, uint32_t term) {
      ref[term].emplace_back(doc, pos);
    });
  }
  return ref;
}

void ExpectIndexMatchesBruteForce(const SequenceCollection& col,
                                  const InvertedIndex& index) {
  auto ref = BruteForce(col, index.options().interval_length,
                        index.options().stride);
  EXPECT_EQ(index.stats().num_terms, ref.size());
  for (const auto& [term, entries] : ref) {
    std::vector<std::pair<uint32_t, uint32_t>> got;
    index.ForEachPosting(term, [&](uint32_t doc, uint32_t tf,
                                   const uint32_t* positions,
                                   uint32_t npos) {
      EXPECT_EQ(tf, npos);
      for (uint32_t i = 0; i < npos; ++i) {
        got.emplace_back(doc, positions[i]);
      }
    });
    EXPECT_EQ(got, entries) << "term " << term;
  }
}

TEST(IndexBuilderTest, SmallCollectionMatchesBruteForce) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 4;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ExpectIndexMatchesBruteForce(col, *index);
}

TEST(IndexBuilderTest, SyntheticCollectionMatchesBruteForce) {
  sim::CollectionOptions copt;
  copt.num_sequences = 40;
  copt.length_mu = 5.0;  // short sequences keep the test fast
  copt.length_sigma = 0.4;
  copt.seed = 11;
  sim::CollectionGenerator gen(copt);
  Result<SequenceCollection> col = gen.Generate();
  ASSERT_TRUE(col.ok());

  for (int n : {4, 8}) {
    IndexOptions options;
    options.interval_length = n;
    Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
    ASSERT_TRUE(index.ok());
    ExpectIndexMatchesBruteForce(*col, *index);
  }
}

TEST(IndexBuilderTest, StrideIndexing) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 4;
  options.stride = 4;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());
  ExpectIndexMatchesBruteForce(col, *index);
  // Strided index must be smaller than the overlapping one.
  IndexOptions full = options;
  full.stride = 1;
  Result<InvertedIndex> dense = IndexBuilder::Build(col, full);
  ASSERT_TRUE(dense.ok());
  EXPECT_LT(index->stats().total_postings, dense->stats().total_postings);
}

TEST(IndexBuilderTest, DocumentGranularity) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 4;
  options.granularity = IndexGranularity::kDocument;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());

  auto ref = BruteForce(col, 4, 1);
  for (const auto& [term, entries] : ref) {
    std::map<uint32_t, uint32_t> expected_tf;
    for (auto [doc, pos] : entries) ++expected_tf[doc];
    std::map<uint32_t, uint32_t> got;
    index->ForEachPosting(term, [&](uint32_t doc, uint32_t tf,
                                    const uint32_t* positions,
                                    uint32_t npos) {
      EXPECT_EQ(positions, nullptr);
      EXPECT_EQ(npos, 0u);
      got[doc] = tf;
    });
    EXPECT_EQ(got, expected_tf) << "term " << term;
  }
  // Document-level postings must be smaller than positional.
  IndexOptions positional;
  positional.interval_length = 4;
  Result<InvertedIndex> pos_index = IndexBuilder::Build(col, positional);
  ASSERT_TRUE(pos_index.ok());
  EXPECT_LT(index->stats().postings_bits, pos_index->stats().postings_bits);
}

TEST(IndexBuilderTest, WildcardsNeverIndexed) {
  SequenceCollection col;
  ASSERT_TRUE(col.Add("w", "", "ACGTNNNNACGT").ok());
  IndexOptions options;
  options.interval_length = 4;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());
  // Only positions 0 and 8 are wildcard-free windows... plus inner ones:
  // windows 0 (ACGT) and 8 (ACGT) are valid; everything crossing N is not.
  EXPECT_EQ(index->stats().total_postings, 2u);
}

TEST(IndexBuilderTest, IndexStoppingDropsFrequentTerms) {
  // AAAA occurs in every sequence; CGTA in only one.
  SequenceCollection col;
  ASSERT_TRUE(col.Add("a", "", "AAAAAAA").ok());
  ASSERT_TRUE(col.Add("b", "", "AAAACGTA").ok());
  ASSERT_TRUE(col.Add("c", "", "TTAAAATT").ok());

  IndexOptions options;
  options.interval_length = 4;
  options.stop_doc_fraction = 0.7;  // terms in >70% of docs are stopped
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());

  int64_t aaaa = EncodeInterval("AAAA", 4);
  EXPECT_EQ(index->FindTerm(static_cast<uint32_t>(aaaa)), nullptr);
  int64_t cgta = EncodeInterval("CGTA", 4);
  EXPECT_NE(index->FindTerm(static_cast<uint32_t>(cgta)), nullptr);
  EXPECT_GT(index->stats().stopped_terms, 0u);
  EXPECT_GT(index->stats().stopped_postings, 0u);
}

TEST(IndexBuilderTest, StoppingDisabledKeepsEverything) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 4;
  options.stop_doc_fraction = 1.0;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->stats().stopped_terms, 0u);
}

TEST(IndexBuilderTest, DocLengthsRecorded) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 4;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->num_docs(), 4u);
  EXPECT_EQ(index->doc_length(0), 10u);
  EXPECT_EQ(index->doc_length(2), 8u);
}

TEST(IndexBuilderTest, RejectsBadOptions) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 2;
  EXPECT_TRUE(IndexBuilder::Build(col, options)
                  .status()
                  .IsInvalidArgument());
  options.interval_length = 8;
  options.stride = 0;
  EXPECT_TRUE(IndexBuilder::Build(col, options)
                  .status()
                  .IsInvalidArgument());
  options.stride = 1;
  options.stop_doc_fraction = 0.0;
  EXPECT_TRUE(IndexBuilder::Build(col, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(IndexBuilderTest, RejectsEmptyCollection) {
  SequenceCollection col;
  IndexOptions options;
  EXPECT_TRUE(IndexBuilder::Build(col, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(IndexBuilderTest, CheckIndexMatchesCollection) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 4;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(CheckIndexMatchesCollection(*index, col).ok());

  // One sequence more than the index covers.
  SequenceCollection longer = SmallCollection();
  ASSERT_TRUE(longer.Add("e", "", "ACGTACGT").ok());
  Status count = CheckIndexMatchesCollection(*index, longer);
  EXPECT_TRUE(count.IsInvalidArgument()) << count.ToString();
  EXPECT_NE(count.ToString().find("4 sequences"), std::string::npos)
      << count.ToString();

  // Same count, but sequence 2 is one base longer.
  SequenceCollection other;
  ASSERT_TRUE(other.Add("a", "", "ACGTACGTAC").ok());
  ASSERT_TRUE(other.Add("b", "", "TTTTACGTTTTT").ok());
  ASSERT_TRUE(other.Add("c", "", "GGGGGGGGG").ok());
  ASSERT_TRUE(other.Add("d", "", "ACGNNACGT").ok());
  Status length = CheckIndexMatchesCollection(*index, other);
  EXPECT_TRUE(length.IsInvalidArgument()) << length.ToString();
  EXPECT_NE(length.ToString().find("sequence 2 is 9 bases"),
            std::string::npos)
      << length.ToString();
}

TEST(IndexBuilderTest, UnknownTermLookupIsNoop) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 4;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());
  bool called = false;
  index->ForEachPosting(EncodeInterval("CCCC", 4),
                        [&](uint32_t, uint32_t, const uint32_t*, uint32_t) {
                          called = true;
                        });
  EXPECT_FALSE(called);
}

TEST(IndexStatsTest, BitsPerPostingComputed) {
  SequenceCollection col = SmallCollection();
  IndexOptions options;
  options.interval_length = 4;
  Result<InvertedIndex> index = IndexBuilder::Build(col, options);
  ASSERT_TRUE(index.ok());
  const IndexStats& s = index->stats();
  EXPECT_GT(s.total_postings, 0u);
  EXPECT_GT(s.postings_bits, 0u);
  EXPECT_NEAR(s.bits_per_posting,
              static_cast<double>(s.postings_bits) / s.total_postings,
              1e-9);
}

}  // namespace
}  // namespace cafe
