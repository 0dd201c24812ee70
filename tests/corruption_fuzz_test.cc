// Failure-injection property tests: every on-disk format must either
// reject a corrupted payload with a Corruption/IOError status or (never)
// crash — random single-bit flips, truncations and extensions are applied
// to serialized collections and indexes. The CRC makes
// acceptance of a flipped payload effectively impossible; acceptance of
// a *truncated-then-CRC-correct* payload is impossible by construction.
//
// The re-CRC cases below mutate a file and then recompute its CRC (and
// mutate wire payloads, whose CRC lives in the frame header), so only
// the parsers' structural checks stand between the bytes and the
// decoders.

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "alphabet/nucleotide.h"
#include "coding/byte_io.h"
#include "collection/collection.h"
#include "index/inverted_index.h"
#include "seqstore/direct_coding.h"
#include "server/protocol.h"
#include "sim/generator.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/timer.h"

namespace cafe {
namespace {

std::string SerializedCollection() {
  sim::CollectionOptions copt;
  copt.num_sequences = 12;
  copt.length_mu = 5.0;
  copt.wildcard_rate = 0.01;
  copt.seed = 2024;
  Result<SequenceCollection> col = sim::CollectionGenerator(copt).Generate();
  EXPECT_TRUE(col.ok());
  std::string data;
  col->Serialize(&data);
  return data;
}

std::string SerializedIndex(const std::string& seed_pattern = "") {
  sim::CollectionOptions copt;
  copt.num_sequences = 12;
  copt.length_mu = 5.0;
  copt.seed = 2026;
  Result<SequenceCollection> col = sim::CollectionGenerator(copt).Generate();
  EXPECT_TRUE(col.ok());
  IndexOptions options;
  options.interval_length = 6;
  options.spaced_seed = seed_pattern;
  Result<InvertedIndex> index = IndexBuilder::Build(*col, options);
  EXPECT_TRUE(index.ok());
  std::string data;
  index->Serialize(&data);
  return data;
}

enum class Mutation { kBitFlip, kTruncate, kExtend, kZeroRange };

std::string Corrupt(const std::string& data, Mutation m, Rng* rng) {
  std::string out = data;
  switch (m) {
    case Mutation::kBitFlip: {
      size_t pos = rng->Uniform(out.size());
      out[pos] = static_cast<char>(out[pos] ^ (1 << rng->Uniform(8)));
      break;
    }
    case Mutation::kTruncate: {
      out.resize(rng->Uniform(out.size()));
      break;
    }
    case Mutation::kExtend: {
      size_t extra = 1 + rng->Uniform(16);
      for (size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<char>(rng->Uniform(256)));
      }
      break;
    }
    case Mutation::kZeroRange: {
      size_t begin = rng->Uniform(out.size());
      size_t len = 1 + rng->Uniform(out.size() - begin);
      for (size_t i = begin; i < begin + len; ++i) out[i] = 0;
      break;
    }
  }
  return out;
}

constexpr Mutation kMutations[] = {Mutation::kBitFlip, Mutation::kTruncate,
                                   Mutation::kExtend, Mutation::kZeroRange};

TEST(CorruptionFuzzTest, CollectionNeverCrashesAlwaysDetects) {
  std::string good = SerializedCollection();
  ASSERT_TRUE(SequenceCollection::Deserialize(good).ok());
  Rng rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad =
        Corrupt(good, kMutations[trial % 4], &rng);
    if (bad == good) continue;
    Result<SequenceCollection> r = SequenceCollection::Deserialize(bad);
    EXPECT_FALSE(r.ok()) << "mutation accepted at trial " << trial;
  }
}

TEST(CorruptionFuzzTest, IndexNeverCrashesAlwaysDetects) {
  std::string good = SerializedIndex();
  ASSERT_TRUE(InvertedIndex::Deserialize(good).ok());
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad = Corrupt(good, kMutations[trial % 4], &rng);
    if (bad == good) continue;
    Result<InvertedIndex> r = InvertedIndex::Deserialize(bad);
    EXPECT_FALSE(r.ok()) << "mutation accepted at trial " << trial;
  }
}

// ---- Re-CRC mutations ----------------------------------------------

enum class Edit { kBitFlip, kInsert, kDelete, kRun7F, kSpliceVByte };
constexpr Edit kEdits[] = {Edit::kBitFlip, Edit::kInsert, Edit::kDelete,
                           Edit::kRun7F, Edit::kSpliceVByte};

// vbytes at the edges of 64- and 32-bit fields, plus the ten-byte
// all-ones word, which no writer emits (it would be 2^64).
std::string EdgeVByte(Rng* rng) {
  const uint64_t values[] = {~uint64_t{0}, ~uint64_t{0} - 1,
                             uint64_t{1} << 63, (uint64_t{1} << 32) - 1,
                             (uint64_t{1} << 32) + 1};
  const uint64_t pick = rng->Uniform(6);
  if (pick == 5) return std::string(9, '\x7f') + '\x81';
  std::string out;
  coding::ByteWriter(&out).PutVByte(values[pick]);
  return out;
}

// Applies one edit at a random position of a non-empty *s.
void ApplyEdit(std::string* s, Edit edit, Rng* rng) {
  if (s->empty()) return;
  const size_t pos = rng->Uniform(s->size());
  switch (edit) {
    case Edit::kBitFlip:
      (*s)[pos] = static_cast<char>((*s)[pos] ^ (1 << rng->Uniform(8)));
      break;
    case Edit::kInsert: {
      std::string bytes(1 + rng->Uniform(8), '\0');
      for (char& c : bytes) c = static_cast<char>(rng->Uniform(256));
      s->insert(pos, bytes);
      break;
    }
    case Edit::kDelete:
      s->erase(pos, 1 + rng->Uniform(8));
      break;
    case Edit::kRun7F:
      s->replace(pos, 2 + rng->Uniform(14), 2 + rng->Uniform(14), '\x7f');
      break;
    case Edit::kSpliceVByte: {
      const std::string vbyte = EdgeVByte(rng);
      s->replace(pos, vbyte.size(), vbyte);
      break;
    }
  }
}

// Feeds seeded inputs from `mutate` to `check` for a fixed number of
// trials or until the time box closes (sanitizer builds run slower).
void RunMutations(uint64_t seed,
                  const std::function<std::string(Edit, Rng*)>& mutate,
                  const std::function<void(const std::string&)>& check) {
  constexpr int kTrials = 4000;
  constexpr double kTimeBoxSeconds = 3.0;
  Rng rng(seed);
  WallTimer timer;
  for (int trial = 0; trial < kTrials; ++trial) {
    if (timer.Seconds() > kTimeBoxSeconds) break;
    SCOPED_TRACE("trial " + std::to_string(trial));
    check(mutate(kEdits[trial % 5], &rng));
  }
}

// A file mutated between its magic and its trailer, then resealed with
// a fresh CRC. With prefix_bytes > 0 half the edits land in the first
// prefix_bytes of the body (the index directory, which is small beside
// the postings blob).
std::function<std::string(Edit, Rng*)> ResealedFile(std::string good,
                                                    size_t prefix_bytes) {
  return [good = std::move(good), prefix_bytes](Edit edit, Rng* rng) {
    std::string body =
        good.substr(coding::kFileMagicBytes,
                    good.size() - coding::kFileMagicBytes - 4);
    if (prefix_bytes > 0 && rng->Uniform(2) == 0) {
      std::string prefix = body.substr(0, prefix_bytes);
      ApplyEdit(&prefix, edit, rng);
      body = prefix + body.substr(prefix_bytes);
    } else {
      ApplyEdit(&body, edit, rng);
    }
    std::string file = good.substr(0, coding::kFileMagicBytes) + body;
    coding::ByteWriter(&file).PutU32(Crc32(file.data(), file.size()));
    return file;
  };
}

void ExpectCleanRejection(const Status& s) {
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// An accepted index must decode every list without faulting, hand out
// only doc ids below num_docs, and no more postings (the sum of tf) than
// the list's posting_count.
void CheckIndex(const std::string& file) {
  Result<InvertedIndex> index = InvertedIndex::Deserialize(file);
  if (!index.ok()) return ExpectCleanRejection(index.status());
  index->directory().ForEachTerm([&](uint32_t term, const TermEntry& e) {
    uint64_t postings = 0;
    index->ForEachPosting(
        term, [&](uint32_t doc, uint32_t tf, const uint32_t*, uint32_t) {
          EXPECT_LT(doc, index->num_docs());
          postings += tf;
        });
    EXPECT_LE(postings, e.posting_count) << "term " << term;
  });
}

size_t IndexPrefixBytes(const std::string& file) {
  Result<InvertedIndex> index = InvertedIndex::Deserialize(file);
  EXPECT_TRUE(index.ok());
  return file.size() - coding::kFileMagicBytes - 4 -
         index->stats().postings_bits / 8;
}

TEST(CorruptionFuzzTest, ResealedContiguousIndexNeverCrashes) {
  const std::string good = SerializedIndex();
  ASSERT_EQ(good.substr(0, 7), "CAFIDX1");
  RunMutations(11, ResealedFile(good, IndexPrefixBytes(good)), CheckIndex);
}

TEST(CorruptionFuzzTest, ResealedSpacedSeedIndexNeverCrashes) {
  const std::string good = SerializedIndex("1101100011");
  ASSERT_EQ(good.substr(0, 7), "CAFIDX2");
  RunMutations(12, ResealedFile(good, IndexPrefixBytes(good)), CheckIndex);
}

// At document granularity posting_count is the sum of tf, which gamma
// codes in a few bits, so opening cannot bound it by the list's bits: a
// 2,000-base poly-A sequence puts 1,993 postings of AAAAAAAA in a 24-bit
// list. A file that stores a lower count opens, and decoding stops the
// list at the tf that takes it past the count.
TEST(CorruptionFuzzTest, LoweredDocumentPostingCountStopsTheList) {
  SequenceCollection collection;
  ASSERT_TRUE(collection.Add("polyA", "", std::string(2000, 'A')).ok());
  IndexOptions options;
  options.granularity = IndexGranularity::kDocument;
  Result<InvertedIndex> built = IndexBuilder::Build(collection, options);
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built->FindTerm(0)->posting_count, 1993u);
  std::string good;
  built->Serialize(&good);

  // The one directory entry: term 0 and offset 0 (each stored + 1),
  // doc_count, posting_count and position_param.
  const auto entry = [](uint64_t posting_count) {
    std::string out;
    coding::ByteWriter w(&out);
    for (uint64_t v : {uint64_t{1}, uint64_t{1}, posting_count, uint64_t{1},
                       uint64_t{1}}) {
      w.PutVByte(v);
    }
    return out;
  };
  const size_t at = good.find(entry(1993));
  ASSERT_NE(at, std::string::npos);
  std::string bad = good.substr(0, good.size() - 4);
  bad.replace(at, entry(1993).size(), entry(1992));
  coding::ByteWriter(&bad).PutU32(Crc32(bad.data(), bad.size()));

  const auto postings = [](const std::string& file) {
    Result<InvertedIndex> index = InvertedIndex::Deserialize(file);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    uint64_t sum = 0;
    index->ForEachPosting(
        0, [&](uint32_t, uint32_t tf, const uint32_t*, uint32_t) {
          sum += tf;
        });
    return sum;
  };
  EXPECT_EQ(postings(good), 1993u);
  EXPECT_EQ(postings(bad), 0u);
  CheckIndex(bad);
}

// An accepted collection must hand out every sequence, each one valid
// IUPAC, and its lengths must sum to TotalBases().
void CheckCollection(const std::string& file) {
  Result<SequenceCollection> col = SequenceCollection::Deserialize(file);
  if (!col.ok()) return ExpectCleanRejection(col.status());
  uint64_t bases = 0;
  std::string seq;
  for (uint32_t id = 0; id < col->NumSequences(); ++id) {
    Status s = col->GetSequence(id, &seq);
    ASSERT_TRUE(s.ok()) << "sequence " << id << ": " << s.ToString();
    EXPECT_TRUE(IsValidSequence(seq)) << "sequence " << id;
    bases += seq.size();
  }
  EXPECT_EQ(bases, col->TotalBases());
}

TEST(CorruptionFuzzTest, ResealedCollectionNeverCrashes) {
  RunMutations(13, ResealedFile(SerializedCollection(), 0), CheckCollection);
}

// Wire payloads carry no CRC of their own (the frame header holds it),
// so the decoders are called on the mutated bytes directly.
std::function<std::string(Edit, Rng*)> MutatedPayload(std::string good) {
  return [good = std::move(good)](Edit edit, Rng* rng) {
    std::string payload = good;
    ApplyEdit(&payload, edit, rng);
    return payload;
  };
}

TEST(CorruptionFuzzTest, MutatedWirePayloadsNeverCrash) {
  server::Hello hello;
  hello.server_version = "cafe 1.2.3 (abcdef)";
  server::SearchRequest request;
  request.query = "ACGTACGTTGCANNACGTAGGCT";
  request.trace_id = 0x1234;
  server::SearchResponse response;
  response.status = Status::NotFound("no such sequence");
  for (uint32_t i = 0; i < 3; ++i) {
    SearchHit hit;
    hit.seq_id = i;
    hit.score = 40 - static_cast<int32_t>(i);
    hit.coarse_score = 1.5 * i;
    response.hits.push_back(hit);
  }

  RunMutations(15, MutatedPayload(server::EncodeHello(hello)),
               [](const std::string& payload) {
                 server::Hello out;
                 Status s = server::DecodeHello(payload, &out);
                 if (!s.ok()) ExpectCleanRejection(s);
               });
  RunMutations(16, MutatedPayload(server::EncodeSearchRequest(request)),
               [](const std::string& payload) {
                 server::SearchRequest out;
                 Status s = server::DecodeSearchRequest(payload, &out);
                 if (!s.ok()) ExpectCleanRejection(s);
               });
  RunMutations(17, MutatedPayload(server::EncodeSearchResponse(response)),
               [](const std::string& payload) {
                 server::SearchResponse out;
                 Status s = server::DecodeSearchResponse(payload, &out);
                 if (!s.ok()) ExpectCleanRejection(s);
               });
}

// CRC-valid files whose length or count fields claim close to 2^64: a
// bounds check written as pos + n > size wraps and lets them through.
// Then the blob walk: sequences must fill the blob exactly, one per name.
TEST(CorruptionFuzzTest, LengthsNear2To64AreCorruption) {
  const uint64_t kHuge = ~uint64_t{0};  // vbyte(n + 1) with n = 2^64 - 2
  const std::string_view kMagic("CAFCOL2\0", 8);
  const auto collection = [&](bool huge_description) {
    std::string file;
    coding::FileWriter w(&file, kMagic);
    w.PutVByte(1 + 1);  // one record
    if (huge_description) w.PutVByteString("seq1");
    w.PutVByte(kHuge);
    w.PutBytes(std::string(16, 'x'));
    w.Finish();
    return file;
  };
  EXPECT_EQ(collection(false).size(), 39u);
  ExpectCleanRejection(
      SequenceCollection::Deserialize(collection(false)).status());
  ExpectCleanRejection(
      SequenceCollection::Deserialize(collection(true)).status());

  // `names` records, then `blob` under a length field of `blob_size`.
  const auto blob_file = [&](int names, const std::vector<uint8_t>& blob,
                             uint64_t blob_size) {
    std::string file;
    coding::FileWriter w(&file, kMagic);
    w.PutVByte(names + 1);
    for (int i = 0; i < names; ++i) {
      w.PutVByteString("seq" + std::to_string(i));
      w.PutVByteString("");
    }
    w.PutVByte(blob_size + 1);
    w.PutBytes(blob);
    w.Finish();
    return file;
  };
  std::vector<uint8_t> two;
  for (std::string_view seq : {"ACGTACGTAC", "GGNNTTAC"}) {
    ASSERT_TRUE(DirectEncodeAppend(seq, &two).ok());
  }
  ASSERT_TRUE(
      SequenceCollection::Deserialize(blob_file(2, two, two.size())).ok());
  const std::vector<uint8_t> cut(two.begin(), two.end() - 1);
  std::vector<uint8_t> padded = two;
  padded.push_back(0);
  for (const std::string& file : {
           blob_file(2, two, kHuge - 1),           // blob length 2^64 - 2
           blob_file(2, two, two.size() + 1),      // one byte past the body
           blob_file(2, cut, cut.size()),          // runs past the blob
           blob_file(2, padded, padded.size()),    // a byte after the last
           blob_file(3, two, two.size()),          // more names than
           blob_file(1, two, two.size()),          // ... or fewer
       }) {
    ExpectCleanRejection(SequenceCollection::Deserialize(file).status());
  }
}

TEST(CorruptionFuzzTest, DirectCodingSlicesNeverCrash) {
  // Decoding random bytes as a direct-coded sequence must never crash;
  // it may succeed (short payloads without structure) or fail cleanly.
  Rng rng(4);
  for (int trial = 0; trial < 500; ++trial) {
    size_t len = rng.Uniform(64);
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Uniform(256));
    std::string out;
    Status s = DirectDecode(junk.data(), junk.size(), &out);
    if (s.ok()) {
      EXPECT_LE(out.size(), 64u * 4u + 64u);
    }
  }
}

}  // namespace
}  // namespace cafe
