#include <memory>
#include <unordered_map>

#include "collection/collection.h"
#include "index/interval.h"
#include "index/inverted_index.h"
#include "index/seed_extract.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace cafe {
namespace {

// Scratch "last doc seen" table used to count document frequencies during
// the first pass; dense alongside the dense directory, hashed otherwise.
class LastDocTable {
 public:
  LastDocTable(int interval_length, bool dense) : dense_(dense) {
    if (dense_) {
      dense_table_.assign(VocabularyUniverse(interval_length), 0);
    }
  }

  // Returns true the first time `term` is seen in `doc`.
  bool MarkSeen(uint32_t term, uint32_t doc) {
    uint32_t tag = doc + 1;
    if (dense_) {
      if (dense_table_[term] == tag) return false;
      dense_table_[term] = tag;
      return true;
    }
    auto [it, inserted] = sparse_table_.try_emplace(term, tag);
    if (!inserted) {
      if (it->second == tag) return false;
      it->second = tag;
    }
    return true;
  }

 private:
  bool dense_;
  std::vector<uint32_t> dense_table_;
  std::unordered_map<uint32_t, uint32_t> sparse_table_;
};

// Per-term write cursors into the flat posting arrays.
class CursorTable {
 public:
  CursorTable(int interval_length, bool dense) : dense_(dense) {
    if (dense_) {
      dense_table_.assign(VocabularyUniverse(interval_length), 0);
    }
  }

  uint64_t* Slot(uint32_t term) {
    if (dense_) return &dense_table_[term];
    return &sparse_table_[term];
  }

 private:
  bool dense_;
  std::vector<uint64_t> dense_table_;
  std::unordered_map<uint32_t, uint64_t> sparse_table_;
};

// Records one completed build into `registry` (no-op when null).
void RecordIndexBuildMetrics(obs::MetricsRegistry* registry,
                             const IndexStats& stats, uint64_t num_docs,
                             double micros) {
  if (registry == nullptr) return;
  registry->GetCounter("index_build.builds")->Add(1);
  registry->GetCounter("index_build.docs_indexed")->Add(num_docs);
  registry->GetCounter("index_build.terms_indexed")->Add(stats.num_terms);
  registry->GetCounter("index_build.postings_indexed")
      ->Add(stats.total_postings);
  registry->GetCounter("index_build.terms_stopped")
      ->Add(stats.stopped_terms);
  registry->GetCounter("index_build.postings_stopped")
      ->Add(stats.stopped_postings);
  registry->GetHistogram("index_build.build_micros")
      ->Record(micros <= 0.0 ? 0 : static_cast<uint64_t>(micros));
}

}  // namespace

Status IndexOptions::Validate() const {
  if (interval_length < kMinIntervalLength ||
      interval_length > kMaxIntervalLength) {
    return Status::InvalidArgument(
        "interval_length must be in [" + std::to_string(kMinIntervalLength) +
        ", " + std::to_string(kMaxIntervalLength) + "]");
  }
  if (stride == 0) {
    return Status::InvalidArgument("stride must be >= 1");
  }
  if (stop_doc_fraction <= 0.0 || stop_doc_fraction > 1.0) {
    return Status::InvalidArgument("stop_doc_fraction must be in (0, 1]");
  }
  if (!spaced_seed.empty()) {
    // Create() parses the pattern and checks weight == interval_length.
    Result<SeedExtractor> extractor =
        SeedExtractor::Create(interval_length, spaced_seed);
    if (!extractor.ok()) return extractor.status();
  }
  return Status::OK();
}

Result<InvertedIndex> IndexBuilder::Build(const SequenceCollection& collection,
                                          const IndexOptions& options) {
  WallTimer timer;
  CAFE_RETURN_IF_ERROR(options.Validate());
  const uint32_t num_docs = collection.NumSequences();
  if (num_docs == 0) {
    return Status::InvalidArgument("cannot index an empty collection");
  }

  InvertedIndex index;
  index.options_ = options;
  index.directory_ = TermDirectory(options.interval_length);
  index.doc_lengths_.resize(num_docs);

  const int n = options.interval_length;
  const bool dense = n <= TermDirectory::kDenseLimit;
  // Validate() above guarantees this resolves.
  Result<SeedExtractor> extractor =
      SeedExtractor::Create(n, options.spaced_seed);
  CAFE_RETURN_IF_ERROR(extractor.status());

  // Pass 1: posting and document counts per term.
  {
    LastDocTable last_doc(n, dense);
    std::string seq;
    for (uint32_t doc = 0; doc < num_docs; ++doc) {
      CAFE_RETURN_IF_ERROR(collection.GetSequence(doc, &seq));
      index.doc_lengths_[doc] = static_cast<uint32_t>(seq.size());
      extractor->ForEach(seq, options.stride,
                         [&](uint32_t /*pos*/, uint32_t term) {
                           TermEntry* e = index.directory_.FindOrCreate(term);
                           ++e->posting_count;
                           if (last_doc.MarkSeen(term, doc)) ++e->doc_count;
                         });
    }
  }

  // Index stopping: drop terms present in too many sequences.
  if (options.stop_doc_fraction < 1.0) {
    const auto threshold = static_cast<uint64_t>(
        options.stop_doc_fraction * static_cast<double>(num_docs));
    std::vector<uint32_t> stopped;
    index.directory_.ForEachTerm([&](uint32_t term, const TermEntry& e) {
      if (e.doc_count > threshold) {
        stopped.push_back(term);
        ++index.stats_.stopped_terms;
        index.stats_.stopped_postings += e.posting_count;
      }
    });
    for (uint32_t term : stopped) index.directory_.Erase(term);
  }

  // Cursor setup: contiguous slices of the flat arrays in term order.
  uint64_t total_postings = 0;
  CursorTable cursors(n, dense);
  index.directory_.ForEachTerm([&](uint32_t term, const TermEntry& e) {
    *cursors.Slot(term) = total_postings;
    total_postings += e.posting_count;
  });

  const bool positional =
      options.granularity == IndexGranularity::kPositional;
  std::vector<uint32_t> flat_docs(total_postings);
  std::vector<uint32_t> flat_positions(positional ? total_postings : 0);

  // Pass 2: fill the flat arrays (extraction order is already sorted by
  // (doc, position) within each term).
  {
    std::string seq;
    for (uint32_t doc = 0; doc < num_docs; ++doc) {
      CAFE_RETURN_IF_ERROR(collection.GetSequence(doc, &seq));
      extractor->ForEach(seq, options.stride,
                         [&](uint32_t pos, uint32_t term) {
                           if (index.directory_.Find(term) == nullptr) return;
                           uint64_t* slot = cursors.Slot(term);
                           flat_docs[*slot] = doc;
                           if (positional) flat_positions[*slot] = pos;
                           ++*slot;
                         });
    }
  }

  // Encode each term's list; record offsets and parameters.
  BitWriter writer;
  uint64_t start = 0;
  index.directory_.ForEachTermMutable([&](uint32_t /*term*/, TermEntry* e) {
    e->bit_offset = writer.bit_count();
    uint32_t param = 1;
    uint32_t doc_count = EncodePostings(
        flat_docs.data() + start,
        positional ? flat_positions.data() + start : nullptr,
        e->posting_count, num_docs, options.granularity, &writer, &param);
    e->position_param = param;
    // doc_count was already established in pass 1; EncodePostings
    // recomputes it from the data as a consistency check.
    if (doc_count != e->doc_count) {
      e->doc_count = doc_count;  // defensive; cannot happen for valid input
    }
    start += e->posting_count;
  });
  index.blob_ = writer.Finish();

  index.stats_.num_terms = index.directory_.NumTerms();
  index.stats_.total_postings = total_postings;
  index.stats_.postings_bits = index.blob_.size() * 8;
  index.stats_.directory_bytes = index.directory_.MemoryBytes();
  index.stats_.bits_per_posting =
      total_postings == 0
          ? 0.0
          : static_cast<double>(index.stats_.postings_bits) /
                static_cast<double>(total_postings);
  RecordIndexBuildMetrics(options.metrics, index.stats_, num_docs,
                          timer.Micros());
  return index;
}

Status CheckIndexMatchesCollection(const InvertedIndex& index,
                                   const SequenceCollection& collection) {
  if (index.num_docs() != collection.NumSequences()) {
    return Status::InvalidArgument(
        "index covers " + std::to_string(index.num_docs()) +
        " sequences but the collection holds " +
        std::to_string(collection.NumSequences()));
  }
  for (uint32_t doc = 0; doc < index.num_docs(); ++doc) {
    Result<size_t> length = collection.SequenceLength(doc);
    CAFE_RETURN_IF_ERROR(length.status());
    if (*length != index.doc_length(doc)) {
      return Status::InvalidArgument(
          "sequence " + std::to_string(doc) + " is " +
          std::to_string(*length) + " bases in the collection but " +
          std::to_string(index.doc_length(doc)) + " in the index");
    }
  }
  return Status::OK();
}

}  // namespace cafe
