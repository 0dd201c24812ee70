// Parameterised sweep over index configurations: every combination of
// interval length (including the sparse-directory regime), stride and
// granularity must agree with a brute-force reference, survive
// serialization, and be served identically out of a mapping of the file.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "collection/collection.h"
#include "index/interval.h"
#include "index/inverted_index.h"
#include "sim/generator.h"
#include "util/env.h"

namespace cafe {
namespace {

struct IndexConfig {
  int interval_length;
  uint32_t stride;
  IndexGranularity granularity;
};

std::string ConfigName(const ::testing::TestParamInfo<IndexConfig>& info) {
  return "n" + std::to_string(info.param.interval_length) + "_s" +
         std::to_string(info.param.stride) + "_" +
         (info.param.granularity == IndexGranularity::kPositional ? "pos"
                                                                  : "doc");
}

class IndexConfigTest : public ::testing::TestWithParam<IndexConfig> {
 protected:
  static void SetUpTestSuite() {
    sim::CollectionOptions copt;
    copt.num_sequences = 30;
    copt.length_mu = 5.6;
    copt.length_sigma = 0.5;
    copt.wildcard_rate = 0.005;
    copt.seed = 314;
    collection_ = new SequenceCollection(
        *sim::CollectionGenerator(copt).Generate());
  }
  static void TearDownTestSuite() {
    delete collection_;
    collection_ = nullptr;
  }

  static SequenceCollection* collection_;
};

SequenceCollection* IndexConfigTest::collection_ = nullptr;

using PostingMap =
    std::map<uint32_t,
             std::vector<std::tuple<uint32_t, uint32_t, uint32_t>>>;

// (term -> [(doc, tf position index, position)]) reference; for document
// granularity positions are recorded as 0.
PostingMap BruteForce(const SequenceCollection& col,
                      const IndexConfig& config) {
  PostingMap ref;
  std::string seq;
  for (uint32_t doc = 0; doc < col.NumSequences(); ++doc) {
    EXPECT_TRUE(col.GetSequence(doc, &seq).ok());
    ForEachInterval(seq, config.interval_length, config.stride,
                    [&](uint32_t pos, uint32_t term) {
                      uint32_t p =
                          config.granularity == IndexGranularity::kPositional
                              ? pos
                              : 0;
                      ref[term].emplace_back(doc, 0, p);
                    });
  }
  return ref;
}

PostingMap Materialize(const PostingSource& source,
                       const TermDirectory& directory,
                       IndexGranularity granularity) {
  PostingMap out;
  directory.ForEachTerm([&](uint32_t term, const TermEntry&) {
    source.ScanPostings(term, [&](uint32_t doc, uint32_t tf,
                                  const uint32_t* pos, uint32_t npos) {
      if (granularity == IndexGranularity::kPositional) {
        EXPECT_EQ(tf, npos);
        for (uint32_t i = 0; i < npos; ++i) {
          out[term].emplace_back(doc, 0, pos[i]);
        }
      } else {
        for (uint32_t i = 0; i < tf; ++i) {
          out[term].emplace_back(doc, 0, 0);
        }
      }
    });
  });
  return out;
}

TEST_P(IndexConfigTest, MatchesBruteForceAndRoundTrips) {
  const IndexConfig& config = GetParam();
  IndexOptions options;
  options.interval_length = config.interval_length;
  options.stride = config.stride;
  options.granularity = config.granularity;

  Result<InvertedIndex> index = IndexBuilder::Build(*collection_, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  PostingMap ref = BruteForce(*collection_, config);
  EXPECT_EQ(index->stats().num_terms, ref.size());
  EXPECT_EQ(Materialize(*index, index->directory(), config.granularity),
            ref);

  // Serialization round trip preserves everything.
  std::string data;
  index->Serialize(&data);
  Result<InvertedIndex> back = InvertedIndex::Deserialize(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(Materialize(*back, back->directory(), config.granularity), ref);

  // The mapped read path serves the same postings.
  std::string path = TempDir() + "/cafe_index_param_" +
                     std::to_string(config.interval_length) + "_" +
                     std::to_string(config.stride) + ".idx";
  ASSERT_TRUE(index->Save(path).ok());
  Result<InvertedIndex> mapped = InvertedIndex::Load(path, IndexMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(Materialize(*mapped, index->directory(), config.granularity),
            ref);
  ASSERT_TRUE(RemoveFile(path).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexConfigTest,
    ::testing::Values(
        IndexConfig{4, 1, IndexGranularity::kPositional},
        IndexConfig{6, 1, IndexGranularity::kPositional},
        IndexConfig{8, 1, IndexGranularity::kPositional},
        IndexConfig{8, 1, IndexGranularity::kDocument},
        IndexConfig{8, 4, IndexGranularity::kPositional},
        IndexConfig{8, 8, IndexGranularity::kDocument},
        IndexConfig{12, 1, IndexGranularity::kPositional},
        IndexConfig{13, 1, IndexGranularity::kPositional},  // sparse dir
        IndexConfig{13, 2, IndexGranularity::kDocument},
        IndexConfig{16, 1, IndexGranularity::kPositional}),
    ConfigName);

}  // namespace
}  // namespace cafe
