// Oracle tests for the striped Smith-Waterman: every dispatch tier must
// return byte-identical scores (and identical engine-level top-hit
// sets) to the scalar reference, including the saturation fallback.

#include "align/sw_simd.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "align/smith_waterman.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/random.h"
#include "util/simd.h"

namespace cafe {
namespace {

// Every tier this CPU can actually run (forcing a wider tier than the
// hardware supports would fault inside the kernel).
std::vector<SimdLevel> TestLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectCpuSimdLevel() >= SimdLevel::kSse2)
    levels.push_back(SimdLevel::kSse2);
  if (DetectCpuSimdLevel() >= SimdLevel::kAvx2)
    levels.push_back(SimdLevel::kAvx2);
  return levels;
}

std::string RandomSeq(size_t len, const std::string& alphabet, Rng* rng) {
  std::string s(len, 'A');
  for (char& c : s) c = alphabet[rng->Uniform(alphabet.size())];
  return s;
}

// Scores q vs t at every tier and checks all agree with scalar.
void ExpectAllTiersAgree(const ScoringScheme& scheme, const std::string& q,
                         const std::string& t) {
  Aligner oracle(scheme);
  oracle.set_simd_level(SimdLevel::kScalar);
  int want = oracle.ScoreOnly(q, t);
  for (SimdLevel level : TestLevels()) {
    Aligner aligner(scheme);
    aligner.set_simd_level(level);
    EXPECT_EQ(aligner.ScoreOnly(q, t), want)
        << SimdLevelName(level) << " |q|=" << q.size() << " |t|=" << t.size();
    // Identical cell accounting keeps stats/traces tier-independent.
    EXPECT_EQ(aligner.cells_computed(), oracle.cells_computed())
        << SimdLevelName(level);
  }
}

TEST(SwSimdTest, SupportedMirrorsValidate) {
  ScoringScheme good;
  EXPECT_TRUE(StripedScorer::Supported(good));
  ScoringScheme positive_gap = good;
  positive_gap.gap_open = 3;
  EXPECT_FALSE(StripedScorer::Supported(positive_gap));
  ScoringScheme zero_extend = good;
  zero_extend.gap_extend = 0;
  EXPECT_FALSE(StripedScorer::Supported(zero_extend));
}

TEST(SwSimdTest, RandomPairsAllTiersAgree) {
  Rng rng(11);
  ScoringScheme scheme;
  for (int iter = 0; iter < 400; ++iter) {
    size_t m = 1 + rng.Uniform(120);
    size_t n = 1 + rng.Uniform(300);
    ExpectAllTiersAgree(scheme, RandomSeq(m, "ACGT", &rng),
                        RandomSeq(n, "ACGT", &rng));
  }
}

TEST(SwSimdTest, IupacWildcardsAllTiersAgree) {
  Rng rng(12);
  ScoringScheme scheme;  // iupac_aware, wildcard_score 0
  const std::string soup = "ACGTNRYKMSWBDHV";
  for (int iter = 0; iter < 200; ++iter) {
    ExpectAllTiersAgree(scheme, RandomSeq(1 + rng.Uniform(80), soup, &rng),
                        RandomSeq(1 + rng.Uniform(160), soup, &rng));
  }
}

TEST(SwSimdTest, SchemeSweepAllTiersAgree) {
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    ScoringScheme scheme;
    scheme.match = 1 + static_cast<int>(rng.Uniform(10));
    scheme.mismatch = -1 - static_cast<int>(rng.Uniform(10));
    scheme.gap_extend = -1 - static_cast<int>(rng.Uniform(6));
    scheme.gap_open =
        scheme.gap_extend - static_cast<int>(rng.Uniform(12));
    scheme.wildcard_score = static_cast<int>(rng.Uniform(5)) - 2;
    ASSERT_TRUE(scheme.Validate().ok());
    ExpectAllTiersAgree(scheme, RandomSeq(1 + rng.Uniform(60), "ACGT", &rng),
                        RandomSeq(1 + rng.Uniform(120), "ACGT", &rng));
  }
}

TEST(SwSimdTest, LinearGapSchemeAgrees) {
  // gap_open == gap_extend exercises the lazy-F loop hardest (every
  // further gapped base costs the same as opening — F chains stay alive
  // long). This case caught a too-eager lazy-F exit in development.
  ScoringScheme scheme;
  scheme.gap_open = -2;
  scheme.gap_extend = -2;
  Rng rng(14);
  for (int iter = 0; iter < 200; ++iter) {
    ExpectAllTiersAgree(scheme, RandomSeq(1 + rng.Uniform(50), "ACGT", &rng),
                        RandomSeq(1 + rng.Uniform(50), "ACGT", &rng));
  }
  // The minimal regression case itself.
  ExpectAllTiersAgree(scheme, "ATGCA", "AC");
}

TEST(SwSimdTest, EdgeShapesAgree) {
  ScoringScheme scheme;
  ExpectAllTiersAgree(scheme, "A", "A");
  ExpectAllTiersAgree(scheme, "A", "T");
  ExpectAllTiersAgree(scheme, "ACGT", std::string(500, 'A'));
  ExpectAllTiersAgree(scheme, std::string(500, 'A'), "ACGT");
  ExpectAllTiersAgree(scheme, std::string(129, 'G'), std::string(257, 'G'));
  // Empty inputs short-circuit before dispatch.
  Aligner aligner(scheme);
  EXPECT_EQ(aligner.ScoreOnly("", "ACGT"), 0);
  EXPECT_EQ(aligner.ScoreOnly("ACGT", ""), 0);
}

TEST(SwSimdTest, SaturationFallsBackToScalar) {
  // 8000 identical bases: score 40000 > INT16_MAX, so the striped
  // kernel must detect saturation and the oracle must serve the call.
  ScoringScheme scheme;
  std::string q(8000, 'A');
  for (SimdLevel level : TestLevels()) {
    Aligner aligner(scheme);
    aligner.set_simd_level(level);
    EXPECT_EQ(aligner.ScoreOnly(q, q), 8000 * scheme.match)
        << SimdLevelName(level);
  }
}

TEST(SwSimdTest, QuerySwitchRebuildsProfile) {
  // One Aligner, alternating queries: the cached striped profile must
  // re-stripe on every query change.
  ScoringScheme scheme;
  Rng rng(15);
  Aligner striped(scheme), oracle(scheme);
  striped.set_simd_level(DetectCpuSimdLevel());
  oracle.set_simd_level(SimdLevel::kScalar);
  std::string q1 = RandomSeq(90, "ACGT", &rng);
  std::string q2 = RandomSeq(33, "ACGT", &rng);
  for (int iter = 0; iter < 20; ++iter) {
    std::string t = RandomSeq(1 + rng.Uniform(200), "ACGT", &rng);
    const std::string& q = (iter % 2 == 0) ? q1 : q2;
    EXPECT_EQ(striped.ScoreOnly(q, t), oracle.ScoreOnly(q, t));
  }
}

// Engine-level oracle: PartitionedSearch's parallel fine phase must
// produce byte-identical top-hit sets at every tier x thread count.
TEST(SwSimdTest, PartitionedTopHitsIdenticalAcrossTiers) {
  sim::CollectionOptions copt;
  copt.num_sequences = 50;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.seed = 21;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 3;
  wopt.query_length = 160;
  wopt.homologs_per_query = 3;
  wopt.seed = 22;
  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  IndexOptions iopt;
  iopt.interval_length = 8;
  iopt.granularity = IndexGranularity::kPositional;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  PartitionedSearch engine(&wl->collection, &index.value());
  // Hit-count coarse mode routes the fine phase through ScoreOnly — the
  // striped seam under test (diagonal mode uses the banded kernel,
  // which stays scalar by design).
  SearchOptions options;
  options.coarse_mode = CoarseRankMode::kHitCount;
  options.fine_candidates = 30;
  options.max_results = 10;

  for (const sim::PlantedQuery& q : wl->queries) {
    std::vector<std::pair<uint32_t, int>> want;  // scalar, threads=1
    bool have_want = false;
    for (SimdLevel level : TestLevels()) {
      internal::SetActiveSimdLevelForTest(level);
      for (uint32_t threads : {1u, 4u}) {
        options.threads = threads;
        Result<SearchResult> r = engine.Search(q.sequence, options);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        std::vector<std::pair<uint32_t, int>> got;
        got.reserve(r->hits.size());
        for (const SearchHit& h : r->hits) {
          got.emplace_back(h.seq_id, h.score);
        }
        if (!have_want) {
          want = got;
          have_want = true;
        } else {
          EXPECT_EQ(got, want)
              << SimdLevelName(level) << " threads=" << threads;
        }
      }
    }
    internal::ResetActiveSimdLevelForTest();
  }
}

// Concurrency hammer for TSan: distinct Aligner instances (the
// per-worker contract) scoring striped concurrently.
TEST(SwSimdTest, ConcurrentAlignersAreIndependent) {
  ScoringScheme scheme;
  Rng seed_rng(33);
  std::string q = RandomSeq(100, "ACGT", &seed_rng);
  std::vector<std::string> targets;
  for (int i = 0; i < 16; ++i) {
    targets.push_back(RandomSeq(150 + 10 * i, "ACGT", &seed_rng));
  }
  Aligner oracle(scheme);
  oracle.set_simd_level(SimdLevel::kScalar);
  std::vector<int> want;
  want.reserve(targets.size());
  for (const std::string& t : targets) want.push_back(oracle.ScoreOnly(q, t));

  std::vector<std::thread> workers;
  std::vector<int> fails(4, 0);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Aligner aligner(scheme);
      aligner.set_simd_level(DetectCpuSimdLevel());
      for (int rep = 0; rep < 50; ++rep) {
        for (size_t i = 0; i < targets.size(); ++i) {
          if (aligner.ScoreOnly(q, targets[i]) != want[i]) ++fails[w];
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(fails[w], 0) << "worker " << w;
}

}  // namespace
}  // namespace cafe
