#include "eval/harness.h"

#include <gtest/gtest.h>

#include "search/exhaustive.h"
#include "sim/workload.h"

namespace cafe::eval {
namespace {

TEST(HarnessTest, RunsAllQueries) {
  sim::CollectionOptions copt;
  copt.num_sequences = 15;
  copt.min_length = 300;
  copt.length_mu = 6.3;
  copt.seed = 50;
  Result<SequenceCollection> col =
      sim::CollectionGenerator(copt).Generate();
  ASSERT_TRUE(col.ok());
  Result<std::vector<std::string>> queries =
      sim::SampleQueries(*col, 4, 120, 0.05, 51);
  ASSERT_TRUE(queries.ok());

  ExhaustiveSearch engine(&*col);
  SearchOptions options;
  Result<BatchResult> batch = RunBatch(&engine, *queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->engine_name, "exhaustive-sw");
  EXPECT_EQ(batch->results.size(), 4u);
  EXPECT_GT(batch->aggregate.total_micros, 0.0);
  EXPECT_EQ(batch->aggregate.queries, 4u);
  EXPECT_GT(batch->mean_query_seconds, 0.0);
  EXPECT_EQ(batch->aggregate.candidates_aligned, 4u * col->NumSequences());
  for (const SearchResult& r : batch->results) {
    EXPECT_FALSE(r.hits.empty());  // query excised from the collection
  }
}

TEST(HarnessTest, PropagatesEngineError) {
  SequenceCollection col;
  ASSERT_TRUE(col.Add("a", "", "ACGTACGTACGT").ok());
  ExhaustiveSearch engine(&col);
  SearchOptions options;
  std::vector<std::string> queries = {"ACGTACGT", ""};
  Result<BatchResult> batch = RunBatch(&engine, queries, options);
  EXPECT_TRUE(batch.status().IsInvalidArgument());
}

TEST(HarnessTest, EmptyQuerySetOk) {
  SequenceCollection col;
  ASSERT_TRUE(col.Add("a", "", "ACGTACGTACGT").ok());
  ExhaustiveSearch engine(&col);
  SearchOptions options;
  Result<BatchResult> batch = RunBatch(&engine, {}, options);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->results.empty());
  EXPECT_EQ(batch->mean_query_seconds, 0.0);
}

}  // namespace
}  // namespace cafe::eval
