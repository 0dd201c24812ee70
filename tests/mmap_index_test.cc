// The two storage modes of InvertedIndex::Load — postings copied to the
// heap (kMemory) and decoded in place from a read-only mapping (kMmap) —
// must serve identical postings and search results, and reject every
// malformed file at open with a Status.

#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "coding/elias.h"
#include "coding/golomb.h"
#include "coding/vbyte.h"
#include "collection/collection.h"
#include "index/index_reader.h"
#include "obs/trace.h"
#include "search/coarse.h"
#include "search/partitioned.h"
#include "sim/workload.h"
#include "util/bitio.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/mmap_file.h"

namespace cafe {
namespace {

struct Fixture {
  SequenceCollection collection;
  InvertedIndex index;
  std::string path;
  std::vector<sim::PlantedQuery> queries;
};

Fixture MakeFixture(IndexGranularity granularity =
                        IndexGranularity::kPositional) {
  sim::CollectionOptions copt;
  copt.num_sequences = 50;
  copt.length_mu = 6.0;
  copt.length_sigma = 0.4;
  copt.wildcard_rate = 0.001;
  copt.seed = 97;
  sim::WorkloadOptions wopt;
  wopt.num_queries = 3;
  wopt.query_length = 150;
  wopt.homologs_per_query = 3;
  wopt.seed = 98;
  Result<sim::PlantedWorkload> wl = sim::BuildPlantedWorkload(copt, wopt);
  EXPECT_TRUE(wl.ok());

  IndexOptions iopt;
  iopt.interval_length = 8;
  iopt.granularity = granularity;
  Result<InvertedIndex> index = IndexBuilder::Build(wl->collection, iopt);
  EXPECT_TRUE(index.ok());

  Fixture f;
  f.collection = std::move(wl->collection);
  f.index = std::move(*index);
  f.queries = std::move(wl->queries);
  f.path = TempDir() + "/cafe_mmap_index_test.idx";
  EXPECT_TRUE(f.index.Save(f.path).ok());
  return f;
}

using PostingTuple = std::tuple<uint32_t, uint32_t, std::vector<uint32_t>>;

std::vector<PostingTuple> Collect(const PostingSource& source,
                                  uint32_t term) {
  std::vector<PostingTuple> out;
  source.ScanPostings(term, [&](uint32_t doc, uint32_t tf,
                                const uint32_t* pos, uint32_t npos) {
    std::vector<uint32_t> p;
    if (pos != nullptr) p.assign(pos, pos + npos);
    out.emplace_back(doc, tf, std::move(p));
  });
  return out;
}

InvertedIndex MustLoad(const std::string& path, IndexMode mode) {
  Result<InvertedIndex> index = InvertedIndex::Load(path, mode);
  EXPECT_TRUE(index.ok()) << IndexModeName(mode) << ": "
                          << index.status().ToString();
  return index.ok() ? std::move(*index) : InvertedIndex();
}

constexpr IndexMode kModes[] = {IndexMode::kMemory, IndexMode::kMmap};

TEST(MmapFileTest, MissingFileFails) {
  EXPECT_TRUE(MmapFile::Open("/nonexistent/cafe.bin").status().IsIOError());
}

TEST(MmapFileTest, MapsFileContents) {
  std::string path = TempDir() + "/cafe_mmap_file_test.bin";
  ASSERT_TRUE(WriteStringToFile(path, "mapped bytes").ok());
  Result<MmapFile> file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->view(), "mapped bytes");
  EXPECT_EQ(file->size(), 12u);
  // Hints are best-effort and never fail, whatever the range.
  file->Advise(MmapFile::Advice::kSequential);
  file->Advise(MmapFile::Advice::kRandom, 4, 4);
  file->Advise(MmapFile::Advice::kWillNeed, 1 << 20, 8);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(MmapFileTest, EmptyFileMapsEmpty) {
  std::string path = TempDir() + "/cafe_mmap_file_empty.bin";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  Result<MmapFile> file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->size(), 0u);
  file->Advise(MmapFile::Advice::kSequential);  // no-op, no crash
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(MmapFileTest, MoveTransfersOwnership) {
  std::string path = TempDir() + "/cafe_mmap_file_move.bin";
  ASSERT_TRUE(WriteStringToFile(path, "abc").ok());
  Result<MmapFile> file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  MmapFile moved = std::move(*file);
  EXPECT_EQ(moved.view(), "abc");
  EXPECT_EQ(file->size(), 0u);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(IndexReadPathTest, OpenParsesMetadata) {
  Fixture f = MakeFixture();
  for (IndexMode mode : kModes) {
    InvertedIndex loaded = MustLoad(f.path, mode);
    EXPECT_EQ(loaded.num_docs(), f.index.num_docs());
    EXPECT_EQ(loaded.options().interval_length,
              f.index.options().interval_length);
    EXPECT_EQ(loaded.doc_lengths(), f.index.doc_lengths());
    EXPECT_EQ(loaded.stats().num_terms, f.index.stats().num_terms);
    EXPECT_EQ(loaded.stats().total_postings,
              f.index.stats().total_postings);
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

// The read-path contract: every term in the vocabulary decodes to the
// same postings from the mapping, from the heap copy and from the
// freshly built index.
TEST(IndexReadPathTest, FullVocabularyMatchesMemory) {
  Fixture f = MakeFixture();
  InvertedIndex mapped = MustLoad(f.path, IndexMode::kMmap);
  InvertedIndex memory = MustLoad(f.path, IndexMode::kMemory);
  size_t checked = 0;
  f.index.directory().ForEachTerm([&](uint32_t term, const TermEntry&) {
    std::vector<PostingTuple> want = Collect(f.index, term);
    EXPECT_EQ(Collect(mapped, term), want) << "mmap term " << term;
    EXPECT_EQ(Collect(memory, term), want) << "memory term " << term;
    ++checked;
  });
  EXPECT_GT(checked, 100u);
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(IndexReadPathTest, DocumentGranularityMatches) {
  Fixture f = MakeFixture(IndexGranularity::kDocument);
  InvertedIndex mapped = MustLoad(f.path, IndexMode::kMmap);
  f.index.directory().ForEachTerm([&](uint32_t term, const TermEntry&) {
    EXPECT_EQ(Collect(mapped, term), Collect(f.index, term));
  });
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(IndexReadPathTest, UnknownTermIsNoop) {
  Fixture f = MakeFixture();
  InvertedIndex mapped = MustLoad(f.path, IndexMode::kMmap);
  uint32_t missing = 0;
  while (f.index.FindTerm(missing) != nullptr) ++missing;
  EXPECT_TRUE(Collect(mapped, missing).empty());
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

// Hits and the whole funnel trace agree between the storage modes, with
// chaining on, sequentially and over four search threads.
TEST(IndexReadPathTest, PartitionedSearchOverMmapMatchesMemory) {
  Fixture f = MakeFixture();
  InvertedIndex memory = MustLoad(f.path, IndexMode::kMemory);
  InvertedIndex mapped = MustLoad(f.path, IndexMode::kMmap);
  PartitionedSearch mem_engine(&f.collection, &memory);
  PartitionedSearch mmap_engine(&f.collection, &mapped);
  std::vector<std::string> queries;
  for (const sim::PlantedQuery& q : f.queries) queries.push_back(q.sequence);
  for (uint32_t threads : {1u, 4u}) {
    SearchOptions options;
    options.fine_candidates = 20;
    options.chain_mode = ChainMode::kFilter;
    options.threads = threads;
    Result<std::vector<SearchResult>> rm =
        mem_engine.BatchSearch(queries, options);
    Result<std::vector<SearchResult>> rx =
        mmap_engine.BatchSearch(queries, options);
    ASSERT_TRUE(rm.ok() && rx.ok());
    ASSERT_EQ(rm->size(), rx->size());
    obs::SearchTrace mem_trace;
    obs::SearchTrace mmap_trace;
    for (size_t q = 0; q < rm->size(); ++q) {
      mem_trace.Merge((*rm)[q].trace);
      mmap_trace.Merge((*rx)[q].trace);
      const std::vector<SearchHit>& hm = (*rm)[q].hits;
      const std::vector<SearchHit>& hx = (*rx)[q].hits;
      ASSERT_EQ(hm.size(), hx.size()) << "threads " << threads;
      for (size_t i = 0; i < hm.size(); ++i) {
        EXPECT_EQ(hm[i].seq_id, hx[i].seq_id);
        EXPECT_EQ(hm[i].score, hx[i].score);
        EXPECT_EQ(hm[i].coarse_score, hx[i].coarse_score);
      }
    }
    EXPECT_GT(mem_trace.postings_decoded, 0u);
    EXPECT_EQ(mem_trace.CountersJson(), mmap_trace.CountersJson())
        << "threads " << threads;
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

// Lock-free reader contract under TSan: many threads decode
// overlapping term sets concurrently with no synchronization, and
// every one sees exactly the reference postings.
TEST(IndexReadPathTest, ConcurrentReadersSeeIdenticalPostings) {
  Fixture f = MakeFixture();
  InvertedIndex mapped = MustLoad(f.path, IndexMode::kMmap);

  std::vector<uint32_t> terms;
  f.index.directory().ForEachTerm([&](uint32_t t, const TermEntry&) {
    if (terms.size() < 64) terms.push_back(t);
  });
  std::vector<PostingTuple> want;
  for (uint32_t t : terms) {
    std::vector<PostingTuple> one = Collect(f.index, t);
    want.insert(want.end(), one.begin(), one.end());
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    readers.emplace_back([&, i] {
      for (int round = 0; round < 3; ++round) {
        std::vector<PostingTuple> got;
        for (uint32_t t : terms) {
          std::vector<PostingTuple> one = Collect(mapped, t);
          got.insert(got.end(), one.begin(), one.end());
        }
        if (got != want) ++mismatches[i];
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(mismatches[i], 0) << "reader " << i;
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(IndexReadPathTest, HeapFootprintExcludesMapping) {
  Fixture f = MakeFixture();
  InvertedIndex mapped = MustLoad(f.path, IndexMode::kMmap);
  InvertedIndex memory = MustLoad(f.path, IndexMode::kMemory);
  // The mapping covers the whole file; the heap holds only the
  // directory. Memory mode adds the postings blob and maps nothing.
  const IndexStats& stats = f.index.stats();
  EXPECT_GT(mapped.MappedBytes(), stats.postings_bits / 8);
  EXPECT_EQ(mapped.MemoryBytes(), stats.directory_bytes);
  EXPECT_EQ(memory.MappedBytes(), 0u);
  EXPECT_EQ(memory.MemoryBytes(),
            stats.directory_bytes + stats.postings_bits / 8);
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(IndexReadPathTest, MetricsRecordOpenFactsOncePerMappedIndex) {
  Fixture f = MakeFixture();
  InvertedIndex mapped = MustLoad(f.path, IndexMode::kMmap);
  obs::MetricsRegistry registry;
  mapped.AttachMetrics(&registry);
  obs::MetricsSnapshot snap = registry.SnapshotData();
  EXPECT_EQ(snap.counters["mmap_index.maps"], 1u);
  EXPECT_EQ(snap.counters["mmap_index.bytes_mapped"], mapped.MappedBytes());
  EXPECT_EQ(snap.histograms["mmap_index.first_touch_micros"].count, 1u);
  // Re-attaching must not double-count the open-time facts.
  mapped.AttachMetrics(&registry);
  snap = registry.SnapshotData();
  EXPECT_EQ(snap.counters["mmap_index.maps"], 1u);

  // Heap storage has no mapping to report on.
  InvertedIndex memory = MustLoad(f.path, IndexMode::kMemory);
  obs::MetricsRegistry memory_registry;
  memory.AttachMetrics(&memory_registry);
  snap = memory_registry.SnapshotData();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(IndexReadPathTest, IndexReaderSelectsEachMode) {
  Fixture f = MakeFixture();
  for (IndexMode mode : kModes) {
    Result<IndexReader> reader = IndexReader::Open(f.path, mode);
    ASSERT_TRUE(reader.ok()) << IndexModeName(mode);
    EXPECT_EQ(reader->source()->num_docs(), f.index.num_docs());
    EXPECT_EQ(reader->source()->MappedBytes() != 0, mode == IndexMode::kMmap);
  }
  EXPECT_TRUE(ParseIndexMode("mmap").ok());
  EXPECT_TRUE(ParseIndexMode("memory").ok());
  EXPECT_TRUE(ParseIndexMode("cached").status().IsInvalidArgument());
  EXPECT_TRUE(ParseIndexMode("disk").status().IsInvalidArgument());
  EXPECT_TRUE(ParseIndexMode("sideways").status().IsInvalidArgument());
  ASSERT_TRUE(RemoveFile(f.path).ok());
}

TEST(IndexReadPathTest, MissingFileFails) {
  for (IndexMode mode : kModes) {
    Status s = InvertedIndex::Load("/nonexistent/cafe.idx", mode).status();
    EXPECT_TRUE(s.IsIOError()) << IndexModeName(mode);
  }
}

// Malformed inputs are rejected with Status — never a CHECK — at every
// truncation point: inside the header, inside the directory, inside
// the blob, and one byte short of the checksum.
TEST(IndexReadPathTest, TruncatedFileFails) {
  Fixture f = MakeFixture();
  std::string data;
  ASSERT_TRUE(ReadFileToString(f.path, &data).ok());
  std::string bad_path = TempDir() + "/cafe_mmap_index_trunc.idx";
  for (size_t keep :
       {size_t{3}, size_t{16}, size_t{40}, data.size() / 2,
        data.size() - 1}) {
    ASSERT_TRUE(WriteStringToFile(bad_path, data.substr(0, keep)).ok());
    for (IndexMode mode : kModes) {
      EXPECT_TRUE(InvertedIndex::Load(bad_path, mode).status().IsCorruption())
          << "kept " << keep << ", " << IndexModeName(mode);
    }
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
  ASSERT_TRUE(RemoveFile(bad_path).ok());
}

TEST(IndexReadPathTest, CorruptFileFails) {
  Fixture f = MakeFixture();
  std::string data;
  ASSERT_TRUE(ReadFileToString(f.path, &data).ok());
  std::string bad_path = TempDir() + "/cafe_mmap_index_bad.idx";
  // A flipped bit anywhere — header, directory, blob — must trip the
  // CRC sweep before any postings decode touches the bytes.
  for (size_t at : {size_t{9}, data.size() / 2, data.size() - 8}) {
    std::string bad = data;
    bad[at] ^= 0x20;
    ASSERT_TRUE(WriteStringToFile(bad_path, bad).ok());
    for (IndexMode mode : kModes) {
      EXPECT_TRUE(InvertedIndex::Load(bad_path, mode).status().IsCorruption())
          << "flip at " << at << ", " << IndexModeName(mode);
    }
  }
  ASSERT_TRUE(RemoveFile(f.path).ok());
  ASSERT_TRUE(RemoveFile(bad_path).ok());
}

// ---- Hand-built files: valid CRC, bad structure ----------------------
//
// Each file follows the CAFIDX1 layout of docs/FORMATS.md field by
// field, with interval length 4 and (unless a case says otherwise)
// document granularity, and carries a correct CRC-32, so only the
// structural checks stand between its fields and the decoder.

std::string VByte(uint64_t v) {
  std::vector<uint8_t> bytes;
  coding::AppendVByte(&bytes, v);
  return {bytes.begin(), bytes.end()};
}

struct RawTerm {
  uint64_t term_gap;  // first entry stores term + 1
  uint64_t doc_count;
  uint64_t posting_count;
  uint64_t offset_gap;  // bit offset gap (stored + 1)
};

struct RawIndex {
  IndexGranularity granularity = IndexGranularity::kDocument;
  std::string num_docs_field = VByte(2 + 1);
  std::vector<uint32_t> doc_lengths = {10, 10};
  std::vector<RawTerm> terms;
  std::vector<uint8_t> blob;
};

std::string Serialize(const RawIndex& raw) {
  std::string out("CAFIDX1\0", 8);
  out.push_back(4);  // interval length
  out.push_back(static_cast<char>(raw.granularity));
  const uint32_t stride = 1;
  const double stop = 1.0;
  out.append(reinterpret_cast<const char*>(&stride), 4);
  out.append(reinterpret_cast<const char*>(&stop), 8);
  out += raw.num_docs_field;
  for (uint32_t len : raw.doc_lengths) out += VByte(uint64_t{len} + 1);
  out += VByte(raw.terms.size() + 1);
  for (const RawTerm& t : raw.terms) {
    out += VByte(t.term_gap) + VByte(t.doc_count) + VByte(t.posting_count);
    out += VByte(1);  // position_param
    out += VByte(t.offset_gap + 1);
  }
  out += VByte(raw.blob.size() + 1);
  out.append(raw.blob.begin(), raw.blob.end());
  const uint32_t crc = Crc32(out.data(), out.size());
  out.append(reinterpret_cast<const char*>(&crc), 4);
  return out;
}

// One document-granularity list: each doc gap with tf 1, coded as the
// index builder codes it for a two-document collection.
std::vector<uint8_t> ListBlob(const std::vector<uint64_t>& doc_gaps) {
  BitWriter w;
  const uint64_t b = coding::OptimalGolombParameter(doc_gaps.size(), 2);
  for (uint64_t gap : doc_gaps) {
    coding::EncodeGolomb(&w, gap, b);
    coding::EncodeGamma(&w, 1);
  }
  return w.Finish();
}

// Term 0 ("AAAA") in document 1 of two: the valid base every bad case
// departs from.
RawIndex ValidRawIndex() {
  RawIndex raw;
  raw.terms.push_back(RawTerm{1, 1, 1, 0});
  raw.blob = ListBlob({2});
  return raw;
}

std::string WriteRaw(const RawIndex& raw) {
  const std::string path = TempDir() + "/cafe_mmap_index_raw.idx";
  EXPECT_TRUE(WriteStringToFile(path, Serialize(raw)).ok());
  return path;
}

void ExpectRejected(const RawIndex& raw, const std::string& why) {
  const std::string path = WriteRaw(raw);
  for (IndexMode mode : kModes) {
    Status s = InvertedIndex::Load(path, mode).status();
    EXPECT_TRUE(s.IsCorruption()) << IndexModeName(mode) << ": " << why;
    EXPECT_NE(s.message().find(why), std::string::npos)
        << IndexModeName(mode) << ": " << s.ToString();
  }
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(IndexStructureTest, ValidHandBuiltFileOpens) {
  const std::string path = WriteRaw(ValidRawIndex());
  for (IndexMode mode : kModes) {
    InvertedIndex index = MustLoad(path, mode);
    EXPECT_EQ(index.num_docs(), 2u);
    EXPECT_EQ(Collect(index, 0), (std::vector<PostingTuple>{{1, 1, {}}}))
        << IndexModeName(mode);
  }
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(IndexStructureTest, OffsetPastBlobIsRejected) {
  RawIndex raw = ValidRawIndex();
  raw.terms[0].offset_gap = raw.blob.size() * 8 + 64;
  ExpectRejected(raw, "postings offset out of range");
}

TEST(IndexStructureTest, WrappingOffsetSumIsRejected) {
  // The second gap wraps the running sum back to bit 0: every stored
  // offset looks in range, but they no longer ascend.
  RawIndex raw = ValidRawIndex();
  raw.terms[0].offset_gap = 8;
  raw.terms.push_back(RawTerm{1, 1, 1, ~uint64_t{0} - 8 + 1});
  raw.blob = ListBlob({2});
  raw.blob.push_back(raw.blob[0]);
  ExpectRejected(raw, "postings offset out of range");
}

TEST(IndexStructureTest, DocCountAboveNumDocsIsRejected) {
  RawIndex raw = ValidRawIndex();
  raw.terms[0] = RawTerm{1, 3, 3, 0};
  raw.blob = ListBlob({1, 1, 1});
  ExpectRejected(raw, "bad term entry");
}

TEST(IndexStructureTest, OverlongVByteIsRejected) {
  // Twelve continuation bytes before the terminator: past ten, a
  // decoder without a cap shifts beyond 64 bits.
  RawIndex raw = ValidRawIndex();
  raw.num_docs_field = std::string(12, '\x7f') + '\x80';
  ExpectRejected(raw, "document count too large");
}

// A list whose doc id runs past the collection opens (the directory is
// consistent) but decodes to nothing, so the hit-count accumulator,
// indexed by doc, is never written out of bounds.
TEST(IndexStructureTest, DocIdPastNumDocsStopsTheList) {
  RawIndex raw = ValidRawIndex();
  raw.blob = ListBlob({5});  // doc 4 of 2
  const std::string path = WriteRaw(raw);
  for (IndexMode mode : kModes) {
    InvertedIndex index = MustLoad(path, mode);
    EXPECT_TRUE(Collect(index, 0).empty()) << IndexModeName(mode);
    CoarseRanker ranker(&index);
    std::vector<CoarseCandidate> ranked = ranker.Rank(
        "AAAAAAAA", CoarseRankMode::kHitCount, 10, /*frame_width=*/0, nullptr);
    EXPECT_TRUE(ranked.empty()) << IndexModeName(mode);
  }
  ASSERT_TRUE(RemoveFile(path).ok());
}

// A document-granularity list that claims five documents but encodes
// one: the rest of its byte is padding, and past the blob end every gap
// decodes as 1. No entry read past the end may reach the caller — the
// decoder stops rather than hand out made-up doc ids.
TEST(IndexStructureTest, TruncatedDocumentListStopsAtTheBlobEnd) {
  RawIndex raw = ValidRawIndex();
  raw.num_docs_field = VByte(8 + 1);
  raw.doc_lengths.assign(8, 10);
  raw.terms[0] = RawTerm{1, 5, 5, 0};
  BitWriter w;
  coding::EncodeGolomb(&w, 2, coding::OptimalGolombParameter(5, 8));
  coding::EncodeGamma(&w, 1);  // doc 1, tf 1 — and nothing more
  raw.blob = w.Finish();
  const std::string path = WriteRaw(raw);
  for (IndexMode mode : kModes) {
    InvertedIndex index = MustLoad(path, mode);
    EXPECT_EQ(Collect(index, 0), (std::vector<PostingTuple>{{1, 1, {}}}))
        << IndexModeName(mode);
  }
  ASSERT_TRUE(RemoveFile(path).ok());
}

// A positional list whose one entry claims tf = 2^20 inside a few bytes
// of blob: every position takes at least one bit, so decode stops the
// list rather than sizing a 4 MiB position buffer from one gamma code.
TEST(IndexStructureTest, TfBeyondTheBitsLeftStopsTheList) {
  auto positional = [](uint64_t tf) {
    RawIndex raw = ValidRawIndex();
    raw.granularity = IndexGranularity::kPositional;
    BitWriter w;
    coding::EncodeGolomb(&w, 2, coding::OptimalGolombParameter(1, 2));
    coding::EncodeGamma(&w, tf);
    coding::EncodeGolomb(&w, 1, /*b=*/1);  // first position: 0
    raw.blob = w.Finish();
    return raw;
  };
  const std::string control = WriteRaw(positional(1));
  for (IndexMode mode : kModes) {
    InvertedIndex index = MustLoad(control, mode);
    EXPECT_EQ(Collect(index, 0), (std::vector<PostingTuple>{{1, 1, {0}}}))
        << IndexModeName(mode);
  }
  const std::string path = WriteRaw(positional(uint64_t{1} << 20));
  for (IndexMode mode : kModes) {
    InvertedIndex index = MustLoad(path, mode);
    EXPECT_TRUE(Collect(index, 0).empty()) << IndexModeName(mode);
  }
  ASSERT_TRUE(RemoveFile(path).ok());
}

}  // namespace
}  // namespace cafe
