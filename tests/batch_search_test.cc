// Determinism of the parallel execution layer: BatchSearch and the
// parallel fine phase must return bit-identical rankings at every
// thread count.

#include <gtest/gtest.h>

#include <map>

#include "index/inverted_index.h"
#include "obs/span.h"
#include "search/exhaustive.h"
#include "search/partitioned.h"
#include "sim/generator.h"
#include "sim/workload.h"
#include "util/env.h"

namespace cafe {
namespace {

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::vector<std::string> queries;
};

Fixture MakeFixture(uint32_t num_queries = 6) {
  sim::CollectionOptions copt;
  copt.num_sequences = 80;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 4242;
  Result<SequenceCollection> col =
      sim::CollectionGenerator(copt).Generate();
  EXPECT_TRUE(col.ok()) << col.status().ToString();

  IndexOptions iopt;
  iopt.interval_length = 8;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, iopt);
  EXPECT_TRUE(index.ok()) << index.status().ToString();

  Result<std::vector<std::string>> queries =
      sim::SampleQueries(*col, num_queries, 220, 0.08, 17);
  EXPECT_TRUE(queries.ok()) << queries.status().ToString();

  Fixture f;
  f.collection = std::move(*col);
  f.index = std::move(*index);
  f.queries = std::move(*queries);
  return f;
}

// Compares everything deterministic about two results: the ranking and
// the work counters. Timings are excluded (they are the only fields
// parallelism may change).
void ExpectSameResult(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t h = 0; h < a.hits.size(); ++h) {
    EXPECT_EQ(a.hits[h].seq_id, b.hits[h].seq_id) << "hit " << h;
    EXPECT_EQ(a.hits[h].score, b.hits[h].score) << "hit " << h;
    EXPECT_EQ(a.hits[h].coarse_score, b.hits[h].coarse_score)
        << "hit " << h;
    EXPECT_EQ(a.hits[h].strand, b.hits[h].strand) << "hit " << h;
    EXPECT_EQ(a.hits[h].bit_score, b.hits[h].bit_score) << "hit " << h;
    EXPECT_EQ(a.hits[h].evalue, b.hits[h].evalue) << "hit " << h;
  }
  EXPECT_EQ(a.trace.CountersJson(), b.trace.CountersJson());
}

void ExpectSameBatch(const std::vector<SearchResult>& a,
                     const std::vector<SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ExpectSameResult(a[i], b[i]);
  }
}

TEST(BatchSearchTest, OneVsManyThreadsIdenticalResults) {
  Fixture f = MakeFixture();
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 30;

  options.threads = 1;
  Result<std::vector<SearchResult>> sequential =
      engine.BatchSearch(f.queries, options);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  ASSERT_FALSE((*sequential)[0].hits.empty());

  for (uint32_t threads : {2u, 4u, 8u}) {
    options.threads = threads;
    Result<std::vector<SearchResult>> parallel =
        engine.BatchSearch(f.queries, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameBatch(*sequential, *parallel);
  }
}

TEST(BatchSearchTest, ParallelFinePhaseMatchesSequential) {
  Fixture f = MakeFixture(/*num_queries=*/3);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 40;

  for (const std::string& q : f.queries) {
    options.threads = 1;
    Result<SearchResult> sequential = engine.Search(q, options);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    options.threads = 4;
    Result<SearchResult> parallel = engine.Search(q, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameResult(*sequential, *parallel);
  }
}

// A traced batch keeps each query's spans under its own "search" span:
// the recorder's implicit parent is shared by every thread, so queries
// run concurrently would nest under each other's spans.
TEST(BatchSearchTest, TracedBatchNestsEachQueryUnderItsOwnSearch) {
  Fixture f = MakeFixture(/*num_queries=*/12);
  PartitionedSearch engine(&f.collection, &f.index);
  obs::SpanRecorder spans(/*trace_id=*/0);
  SearchOptions options;
  options.threads = 4;
  options.spans = &spans;
  ASSERT_TRUE(engine.BatchSearch(f.queries, options).ok());

  const std::vector<obs::SpanEvent> events = spans.Snapshot();
  std::map<uint32_t, obs::SpanEvent> by_id;
  for (const obs::SpanEvent& e : events) by_id[e.id] = e;
  size_t searches = 0;
  for (const obs::SpanEvent& e : events) {
    const std::string name = e.name;
    if (name == "search") {
      ++searches;
      EXPECT_EQ(e.parent, 0u) << "search span " << e.id;
    } else if (name == "coarse.rank" || name == "fine.align" ||
               name == "post.process") {
      ASSERT_EQ(by_id.count(e.parent), 1u) << name << " " << e.id;
      const obs::SpanEvent& parent = by_id[e.parent];
      EXPECT_STREQ(parent.name, "search") << name << " " << e.id;
      EXPECT_EQ(parent.tid, e.tid) << name << " " << e.id;
    }
  }
  EXPECT_EQ(searches, f.queries.size());
  EXPECT_EQ(spans.dropped(), 0u);
}

TEST(BatchSearchTest, BothStrandsAndRescoreStayDeterministic) {
  Fixture f = MakeFixture(/*num_queries=*/3);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.max_results = 8;
  options.fine_candidates = 25;
  options.search_both_strands = true;
  options.rescore_full = true;

  options.threads = 1;
  Result<std::vector<SearchResult>> sequential =
      engine.BatchSearch(f.queries, options);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  options.threads = 4;
  Result<std::vector<SearchResult>> parallel =
      engine.BatchSearch(f.queries, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectSameBatch(*sequential, *parallel);
}

TEST(BatchSearchTest, ConcurrentQueriesOverMappedIndex) {
  Fixture f = MakeFixture();
  const std::string path = TempDir() + "/cafe_batch_search_test.idx";
  ASSERT_TRUE(f.index.Save(path).ok());
  // Several queries decode out of the same read-only mapping at once.
  Result<InvertedIndex> mapped = InvertedIndex::Load(path, IndexMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  PartitionedSearch mem_engine(&f.collection, &f.index);
  PartitionedSearch mmap_engine(&f.collection, &*mapped);
  SearchOptions options;
  options.max_results = 10;
  options.fine_candidates = 30;

  options.threads = 1;
  Result<std::vector<SearchResult>> reference =
      mem_engine.BatchSearch(f.queries, options);
  ASSERT_TRUE(reference.ok());
  options.threads = 4;
  Result<std::vector<SearchResult>> concurrent =
      mmap_engine.BatchSearch(f.queries, options);
  ASSERT_TRUE(concurrent.ok()) << concurrent.status().ToString();
  ExpectSameBatch(*reference, *concurrent);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(BatchSearchTest, BaselineEngineBatchIsDeterministic) {
  Fixture f = MakeFixture(/*num_queries=*/2);
  ExhaustiveSearch engine(&f.collection);
  SearchOptions options;
  options.max_results = 5;

  options.threads = 1;
  Result<std::vector<SearchResult>> sequential =
      engine.BatchSearch(f.queries, options);
  ASSERT_TRUE(sequential.ok());
  options.threads = 2;
  Result<std::vector<SearchResult>> parallel =
      engine.BatchSearch(f.queries, options);
  ASSERT_TRUE(parallel.ok());
  ExpectSameBatch(*sequential, *parallel);
}

TEST(BatchSearchTest, EmptyBatchAndErrorPropagation) {
  Fixture f = MakeFixture(/*num_queries=*/1);
  PartitionedSearch engine(&f.collection, &f.index);
  SearchOptions options;
  options.threads = 4;

  Result<std::vector<SearchResult>> empty =
      engine.BatchSearch({}, options);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // A query shorter than the interval length fails; the batch reports
  // the error even when other queries succeed.
  std::vector<std::string> queries = {f.queries[0], "ACG", f.queries[0]};
  Result<std::vector<SearchResult>> bad =
      engine.BatchSearch(queries, options);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument())
      << bad.status().ToString();
}

}  // namespace
}  // namespace cafe
