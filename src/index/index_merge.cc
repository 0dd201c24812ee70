#include "index/index_merge.h"

#include <algorithm>
#include <map>

#include "collection/collection.h"
#include "index/index_metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cafe {

Result<InvertedIndex> MergeIndexes(
    const std::vector<const InvertedIndex*>& shards,
    const std::vector<uint32_t>& doc_offsets) {
  if (shards.empty() || shards.size() != doc_offsets.size()) {
    return Status::InvalidArgument(
        "need at least one shard and matching doc_offsets");
  }
  IndexOptions options = shards[0]->options();
  if (options.stop_doc_fraction < 1.0) {
    return Status::InvalidArgument(
        "stopped shards cannot be merged (stopping is a whole-collection "
        "decision)");
  }
  uint64_t total_docs = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    const IndexOptions& o = shards[i]->options();
    // Granularity may differ across parts: a positional shard carries a
    // superset of the document-level information, so a mixed set merges
    // at the weaker (document) granularity. Everything that shapes the
    // term space itself must still agree exactly.
    if (o.interval_length != options.interval_length ||
        o.stride != options.stride ||
        o.spaced_seed != options.spaced_seed ||
        o.stop_doc_fraction != options.stop_doc_fraction) {
      return Status::InvalidArgument("shard options differ");
    }
    if (o.granularity == IndexGranularity::kDocument) {
      options.granularity = IndexGranularity::kDocument;
    }
    if (doc_offsets[i] != total_docs) {
      return Status::InvalidArgument(
          "doc_offsets must be the cumulative shard sizes");
    }
    total_docs += shards[i]->num_docs();
  }
  if (total_docs > 0xFFFFFFFFull) {
    return Status::InvalidArgument("merged collection too large");
  }

  InvertedIndex merged;
  merged.options_ = options;
  merged.directory_ = TermDirectory(options.interval_length);
  merged.doc_lengths_.reserve(total_docs);
  for (const InvertedIndex* shard : shards) {
    merged.doc_lengths_.insert(merged.doc_lengths_.end(),
                               shard->doc_lengths().begin(),
                               shard->doc_lengths().end());
  }

  // Union of terms -> which shards hold postings for each.
  std::map<uint32_t, std::vector<uint32_t>> term_shards;
  for (uint32_t si = 0; si < shards.size(); ++si) {
    shards[si]->directory().ForEachTerm(
        [&](uint32_t term, const TermEntry&) {
          term_shards[term].push_back(si);
        });
  }

  const bool positional =
      options.granularity == IndexGranularity::kPositional;
  BitWriter writer;
  uint64_t total_postings = 0;
  std::vector<uint32_t> docs, positions;
  for (const auto& [term, shard_ids] : term_shards) {
    docs.clear();
    positions.clear();
    for (uint32_t si : shard_ids) {
      uint32_t offset = doc_offsets[si];
      shards[si]->ForEachPosting(
          term, [&](uint32_t doc, uint32_t tf, const uint32_t* pos,
                    uint32_t npos) {
            if (positional) {
              // Merged granularity is positional only when every shard
              // is, so `pos` is always available here.
              for (uint32_t k = 0; k < npos; ++k) {
                docs.push_back(offset + doc);
                positions.push_back(pos[k]);
              }
            } else {
              // Document granularity: keep one entry per occurrence so
              // the re-encoder reconstructs tf from run lengths. A
              // positional shard merging into a document-level index
              // contributes tf occurrences and drops its offsets.
              for (uint32_t k = 0; k < tf; ++k) {
                docs.push_back(offset + doc);
              }
            }
          });
    }

    // Every term in the union came from at least one shard directory, so
    // its gathered postings cannot be empty, and positional runs must
    // stay aligned with their document ids.
    CAFE_CHECK(!docs.empty()) << "term " << term << " lost its postings";
    if (positional) CAFE_CHECK_EQ(docs.size(), positions.size());

    TermEntry* e = merged.directory_.FindOrCreate(term);
    e->bit_offset = writer.bit_count();
    e->posting_count = static_cast<uint32_t>(docs.size());
    uint32_t param = 1;
    e->doc_count = EncodePostings(
        docs.data(), positional ? positions.data() : nullptr, docs.size(),
        static_cast<uint32_t>(total_docs), options.granularity, &writer,
        &param);
    e->position_param = param;
    total_postings += docs.size();
  }
  merged.blob_ = writer.Finish();

  merged.stats_.num_terms = merged.directory_.NumTerms();
  merged.stats_.total_postings = total_postings;
  merged.stats_.postings_bits = merged.blob_.size() * 8;
  merged.stats_.directory_bytes = merged.directory_.MemoryBytes();
  merged.stats_.bits_per_posting =
      total_postings == 0 ? 0.0
                          : static_cast<double>(merged.stats_.postings_bits) /
                                static_cast<double>(total_postings);
  return merged;
}

Result<InvertedIndex> BuildSharded(const SequenceCollection& collection,
                                   const IndexOptions& options,
                                   uint32_t docs_per_shard,
                                   unsigned threads) {
  WallTimer timer;
  if (docs_per_shard == 0) {
    return Status::InvalidArgument("docs_per_shard must be positive");
  }
  if (options.stop_doc_fraction < 1.0) {
    return Status::InvalidArgument(
        "sharded builds do not support index stopping");
  }
  const uint32_t num_docs = collection.NumSequences();
  if (num_docs == 0) {
    return Status::InvalidArgument("cannot index an empty collection");
  }

  const size_t num_shards =
      (num_docs + docs_per_shard - 1) / docs_per_shard;
  std::vector<InvertedIndex> shards(num_shards);
  std::vector<uint32_t> offsets(num_shards);
  std::vector<Status> errors(num_shards, Status::OK());
  for (size_t s = 0; s < num_shards; ++s) {
    offsets[s] = static_cast<uint32_t>(s) * docs_per_shard;
  }

  // Shards cover disjoint document ranges, so their builds (the
  // per-sequence interval extraction) are independent; the merge below
  // stays sequential and term-ordered, so the merged index is identical
  // in content no matter how many workers built the shards.
  if (threads == 0) threads = ThreadPool::HardwareThreads();
  auto build_shard = [&](size_t s) {
    uint32_t begin = offsets[s];
    uint32_t end = std::min(num_docs, begin + docs_per_shard);
    Result<InvertedIndex> shard =
        IndexBuilder::BuildRange(collection, options, begin, end);
    if (shard.ok()) {
      shards[s] = std::move(*shard);
    } else {
      errors[s] = shard.status();
    }
  };
  if (threads > 1 && num_shards > 1) {
    ThreadPool pool(static_cast<unsigned>(
        std::min<size_t>(threads, num_shards)));
    pool.ParallelFor(num_shards,
                     [&](size_t s, unsigned /*worker*/) { build_shard(s); });
  } else {
    for (size_t s = 0; s < num_shards; ++s) build_shard(s);
  }
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }

  std::vector<const InvertedIndex*> shard_ptrs;
  shard_ptrs.reserve(shards.size());
  for (const InvertedIndex& s : shards) shard_ptrs.push_back(&s);
  Result<InvertedIndex> merged = MergeIndexes(shard_ptrs, offsets);
  // BuildRange does not record (shards are an implementation detail);
  // the sharded build counts as one user-visible build here.
  if (merged.ok()) {
    RecordIndexBuildMetrics(options.metrics, (*merged).stats(),
                            (*merged).num_docs(), timer.Micros());
  }
  return merged;
}

}  // namespace cafe
