// Parameterised sweep over every search engine: each must retrieve the
// strongest planted homologue first, respect max_results/min_score, fill
// its statistics, and annotate E-values when asked — one behavioural
// contract, four implementations.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "index/inverted_index.h"
#include "search/blast_like.h"
#include "search/exhaustive.h"
#include "search/fasta_like.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/env.h"

namespace cafe {
namespace {

struct SharedFixture {
  SequenceCollection collection;
  InvertedIndex index;
  InvertedIndex mapped;  // the same index, loaded from a mapping
  std::string index_path;
  std::vector<sim::PlantedQuery> queries;
};

SharedFixture* fixture = nullptr;

struct EngineCase {
  const char* name;
  std::function<std::unique_ptr<SearchEngine>()> make;
};

class EngineContractTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  static void SetUpTestSuite() {
    if (fixture != nullptr) return;
    sim::CollectionOptions copt;
    copt.num_sequences = 40;
    copt.length_mu = 6.0;
    copt.length_sigma = 0.4;
    copt.seed = 555;
    sim::WorkloadOptions wopt;
    wopt.num_queries = 3;
    wopt.query_length = 180;
    wopt.homologs_per_query = 3;
    wopt.min_homolog_divergence = 0.03;
    wopt.max_homolog_divergence = 0.12;
    wopt.seed = 556;
    Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
    ASSERT_TRUE(wl.ok());
    fixture = new SharedFixture();
    fixture->collection = std::move(wl->collection);
    fixture->queries = std::move(wl->queries);
    IndexOptions iopt;
    iopt.interval_length = 8;
    Result<InvertedIndex> index =
        IndexBuilder::Build(fixture->collection, iopt);
    ASSERT_TRUE(index.ok());
    fixture->index = std::move(*index);
    fixture->index_path = TempDir() + "/cafe_engine_param.idx";
    ASSERT_TRUE(fixture->index.Save(fixture->index_path).ok());
    Result<InvertedIndex> mapped =
        InvertedIndex::Load(fixture->index_path, IndexMode::kMmap);
    ASSERT_TRUE(mapped.ok());
    fixture->mapped = std::move(*mapped);
  }
};

TEST_P(EngineContractTest, FindsStrongestHomologFirst) {
  auto engine = GetParam().make();
  SearchOptions options;
  options.fine_candidates = 25;
  for (const sim::PlantedQuery& q : fixture->queries) {
    Result<SearchResult> r = engine->Search(q.sequence, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->hits.empty());
    EXPECT_EQ(r->hits[0].seq_id, q.true_positives[0]);
    EXPECT_GT(r->hits[0].score, 0);
  }
}

TEST_P(EngineContractTest, MaxResultsRespected) {
  auto engine = GetParam().make();
  SearchOptions options;
  options.max_results = 2;
  Result<SearchResult> r =
      engine->Search(fixture->queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->hits.size(), 2u);
}

TEST_P(EngineContractTest, MinScoreFiltersEverything) {
  auto engine = GetParam().make();
  SearchOptions options;
  options.min_score = 1 << 29;
  Result<SearchResult> r =
      engine->Search(fixture->queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->hits.empty());
}

TEST_P(EngineContractTest, HitsSortedByScore) {
  auto engine = GetParam().make();
  SearchOptions options;
  options.max_results = 20;
  Result<SearchResult> r =
      engine->Search(fixture->queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->hits.size(); ++i) {
    EXPECT_GE(r->hits[i - 1].score, r->hits[i].score);
  }
}

TEST_P(EngineContractTest, StatisticsAnnotationWorks) {
  auto engine = GetParam().make();
  SearchOptions options;
  options.statistics = GumbelParams{0.19, 0.35};
  Result<SearchResult> r =
      engine->Search(fixture->queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  EXPECT_GT(r->hits[0].bit_score, 0.0);
  EXPECT_GE(r->hits[0].evalue, 0.0);
}

TEST_P(EngineContractTest, TracebackAlignmentsConsistent) {
  auto engine = GetParam().make();
  SearchOptions options;
  options.traceback = true;
  options.max_results = 2;
  Result<SearchResult> r =
      engine->Search(fixture->queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->hits.empty());
  const LocalAlignment& a = r->hits[0].alignment;
  ASSERT_FALSE(a.ops.empty());
  EXPECT_GT(a.score, 0);
  EXPECT_LE(a.query_end, fixture->queries[0].sequence.size());
  EXPECT_GT(a.Identity(), 0.5);
}

TEST_P(EngineContractTest, TimingStatsPopulated) {
  auto engine = GetParam().make();
  SearchOptions options;
  Result<SearchResult> r =
      engine->Search(fixture->queries[0].sequence, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->trace.total_micros, 0.0);
  EXPECT_GT(r->trace.candidates_aligned + r->trace.candidates_ranked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineContractTest,
    ::testing::Values(
        EngineCase{"partitioned",
                   [] {
                     return std::make_unique<PartitionedSearch>(
                         &fixture->collection, &fixture->index);
                   }},
        EngineCase{"partitioned_mmap",
                   [] {
                     return std::make_unique<PartitionedSearch>(
                         &fixture->collection, &fixture->mapped);
                   }},
        EngineCase{"exhaustive",
                   [] {
                     return std::make_unique<ExhaustiveSearch>(
                         &fixture->collection);
                   }},
        EngineCase{"blast_like",
                   [] {
                     return std::make_unique<BlastLikeSearch>(
                         &fixture->collection);
                   }},
        EngineCase{"fasta_like",
                   [] {
                     return std::make_unique<FastaLikeSearch>(
                         &fixture->collection);
                   }}),
    [](const ::testing::TestParamInfo<EngineCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace cafe
