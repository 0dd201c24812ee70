// On-disk format of the inverted index.
//
//   magic "CAFIDX1\0" (contiguous seeds) or "CAFIDX2\0" (spaced seeds)
//   u8  interval_length, u8 granularity, u32 stride, f64 stop_doc_fraction
//   [v2 only] u8 seed_span, seed_span bytes of '0'/'1' pattern
//   vbyte num_docs+1, vbyte(doc length + 1) per doc
//   vbyte num_terms+1
//   per term, in ascending term order:
//     vbyte(term gap)            first entry stores term+1
//     vbyte(doc_count)
//     vbyte(posting_count)
//     vbyte(position_param)
//     vbyte(bit offset gap + 1)  offsets are non-decreasing
//   vbyte blob_bytes+1, blob
//   u32 CRC-32 of everything above

#include <cstring>
#include <utility>

#include "coding/vbyte.h"
#include "index/index_format.h"
#include "index/interval.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/timer.h"

namespace cafe {
namespace {

// Version 1 has no spaced-seed header field; indexes built without a
// pattern still serialize as v1 byte-for-byte, so every pre-existing
// index (and tool that compares default index files) is unaffected.
constexpr char kMagicV1[8] = {'C', 'A', 'F', 'I', 'D', 'X', '1', '\0'};
constexpr char kMagicV2[8] = {'C', 'A', 'F', 'I', 'D', 'X', '2', '\0'};

void AppendVByteStr(std::string* out, uint64_t v) {
  std::vector<uint8_t> tmp;
  coding::AppendVByte(&tmp, v);
  out->append(reinterpret_cast<const char*>(tmp.data()), tmp.size());
}

class Parser {
 public:
  explicit Parser(std::string_view data) : data_(data) {}

  uint64_t ReadVByte() {
    if (pos_ >= data_.size()) {
      failed_ = true;
      return 1;
    }
    return coding::ReadVByte(
        reinterpret_cast<const uint8_t*>(data_.data()), data_.size(), &pos_);
  }

  bool ReadRaw(void* dst, size_t n) {
    if (pos_ + n > data_.size()) {
      failed_ = true;
      return false;
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  size_t pos() const { return pos_; }
  bool failed() const { return failed_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

namespace index_internal {

Status ParseIndexPrefix(std::string_view data, IndexPrefix* out) {
  if (data.size() < 8 + 14) {
    return Status::Corruption("index: too short");
  }
  const bool v2 = std::memcmp(data.data(), kMagicV2, 8) == 0;
  if (!v2 && std::memcmp(data.data(), kMagicV1, 8) != 0) {
    return Status::Corruption("index: bad magic");
  }

  Parser p(data.substr(8));
  IndexOptions options;
  uint8_t n8 = 0, g8 = 0;
  if (!p.ReadRaw(&n8, 1) || !p.ReadRaw(&g8, 1)) {
    return Status::Corruption("index: truncated header");
  }
  options.interval_length = n8;
  if (g8 > 1) return Status::Corruption("index: bad granularity");
  options.granularity = static_cast<IndexGranularity>(g8);
  uint32_t stride;
  double stop;
  if (!p.ReadRaw(&stride, 4) || !p.ReadRaw(&stop, 8)) {
    return Status::Corruption("index: truncated header");
  }
  options.stride = stride;
  options.stop_doc_fraction = stop;
  if (v2) {
    uint8_t span = 0;
    if (!p.ReadRaw(&span, 1)) {
      return Status::Corruption("index: truncated header");
    }
    if (span > 0) {
      options.spaced_seed.resize(span);
      if (!p.ReadRaw(options.spaced_seed.data(), span)) {
        return Status::Corruption("index: truncated seed pattern");
      }
    }
  }
  CAFE_RETURN_IF_ERROR(options.Validate());
  out->options = options;

  uint64_t num_docs = p.ReadVByte() - 1;
  // Each document length costs at least one byte; bound before resizing.
  if (num_docs > data.size()) {
    return Status::Corruption("index: document count too large");
  }
  out->doc_lengths.resize(num_docs);
  for (uint64_t i = 0; i < num_docs; ++i) {
    out->doc_lengths[i] = static_cast<uint32_t>(p.ReadVByte() - 1);
  }

  out->directory = TermDirectory(options.interval_length);
  uint64_t num_terms = p.ReadVByte() - 1;
  if (num_terms > data.size()) {
    return Status::Corruption("index: term count too large");
  }
  uint64_t term = 0;
  uint64_t offset = 0;
  uint64_t total_postings = 0;
  for (uint64_t i = 0; i < num_terms; ++i) {
    uint64_t gap = p.ReadVByte();
    term = (i == 0) ? gap - 1 : term + gap;
    if (term >= VocabularyUniverse(options.interval_length)) {
      return Status::Corruption("index: term out of range");
    }
    TermEntry* e = out->directory.FindOrCreate(static_cast<uint32_t>(term));
    e->doc_count = static_cast<uint32_t>(p.ReadVByte());
    e->posting_count = static_cast<uint32_t>(p.ReadVByte());
    e->position_param = static_cast<uint32_t>(p.ReadVByte());
    // Offsets are a running sum of gaps from the file: bound each step
    // by the file size so the sum cannot wrap, and the last one by the
    // blob below.
    const uint64_t offset_gap = p.ReadVByte() - 1;
    if (offset_gap > data.size() * 8 - offset) {
      return Status::Corruption("index: postings offset out of range");
    }
    offset += offset_gap;
    e->bit_offset = offset;
    if (e->doc_count == 0 || e->doc_count > num_docs ||
        e->posting_count < e->doc_count || e->position_param == 0) {
      return Status::Corruption("index: bad term entry");
    }
    total_postings += e->posting_count;
  }

  uint64_t blob_bytes = p.ReadVByte() - 1;
  if (p.failed()) return Status::Corruption("index: truncated directory");
  if (8 + p.pos() + blob_bytes != data.size()) {
    return Status::Corruption("index: blob size mismatch");
  }
  // Offsets never decrease, so the last one is the largest; every list
  // holds at least one posting, so it starts strictly inside the blob.
  if (num_terms > 0 && offset >= blob_bytes * 8) {
    return Status::Corruption("index: postings offset out of range");
  }
  out->blob_offset = 8 + p.pos();
  out->blob_bytes = blob_bytes;

  out->stats = IndexStats{};
  out->stats.num_terms = num_terms;
  out->stats.total_postings = total_postings;
  out->stats.postings_bits = blob_bytes * 8;
  out->stats.directory_bytes = out->directory.MemoryBytes();
  out->stats.bits_per_posting =
      total_postings == 0 ? 0.0
                          : static_cast<double>(blob_bytes * 8) /
                                static_cast<double>(total_postings);
  return Status::OK();
}

}  // namespace index_internal

void InvertedIndex::Serialize(std::string* out) const {
  out->clear();
  const bool v2 = !options_.spaced_seed.empty();
  out->append(v2 ? kMagicV2 : kMagicV1, 8);
  out->push_back(static_cast<char>(options_.interval_length));
  out->push_back(static_cast<char>(options_.granularity));
  uint32_t stride = options_.stride;
  out->append(reinterpret_cast<const char*>(&stride), 4);
  double stop = options_.stop_doc_fraction;
  out->append(reinterpret_cast<const char*>(&stop), 8);
  if (v2) {
    out->push_back(static_cast<char>(options_.spaced_seed.size()));
    out->append(options_.spaced_seed);
  }

  AppendVByteStr(out, doc_lengths_.size() + 1);
  for (uint32_t len : doc_lengths_) AppendVByteStr(out, uint64_t{len} + 1);

  AppendVByteStr(out, directory_.NumTerms() + 1);
  uint64_t prev_term = 0;
  uint64_t prev_offset = 0;
  bool first = true;
  directory_.ForEachTerm([&](uint32_t term, const TermEntry& e) {
    AppendVByteStr(out, first ? uint64_t{term} + 1 : term - prev_term);
    AppendVByteStr(out, e.doc_count);
    AppendVByteStr(out, e.posting_count);
    AppendVByteStr(out, e.position_param);
    AppendVByteStr(out, e.bit_offset - prev_offset + 1);
    prev_term = term;
    prev_offset = e.bit_offset;
    first = false;
  });

  const std::span<const uint8_t> blob = Blob();
  AppendVByteStr(out, blob.size() + 1);
  out->append(reinterpret_cast<const char*>(blob.data()), blob.size());

  uint32_t crc = Crc32(out->data(), out->size());
  char buf[4];
  std::memcpy(buf, &crc, 4);
  out->append(buf, 4);

  // Cache the serialized size for SerializedBytes().
  serialized_bytes_cache_ = out->size();
}

uint64_t InvertedIndex::SerializedBytes() const {
  if (serialized_bytes_cache_ == 0) {
    std::string tmp;
    Serialize(&tmp);
  }
  return serialized_bytes_cache_;
}

Result<InvertedIndex> InvertedIndex::FromFile(std::string_view file,
                                              MmapFile mapping) {
  if (file.size() < 8 + 14 + 4) {
    return Status::Corruption("index: too short");
  }
  // One sequential sweep verifies the CRC. Over a mapping it is also
  // the first touch of every page, which mmap_index.first_touch_micros
  // reports. Readahead is wide open for the sweep, then switched to
  // random for the point lookups that follow (advice on an empty
  // mapping is a no-op).
  WallTimer sweep_timer;
  mapping.Advise(MmapFile::Advice::kSequential);
  const size_t body = file.size() - 4;
  uint32_t stored_crc;
  std::memcpy(&stored_crc, file.data() + body, 4);
  if (Crc32(file.data(), body) != stored_crc) {
    return Status::Corruption("index: checksum mismatch");
  }
  const auto sweep_micros = static_cast<uint64_t>(sweep_timer.Micros());
  mapping.Advise(MmapFile::Advice::kRandom);

  index_internal::IndexPrefix prefix;
  CAFE_RETURN_IF_ERROR(
      index_internal::ParseIndexPrefix(file.substr(0, body), &prefix));

  InvertedIndex index;
  index.options_ = prefix.options;
  index.doc_lengths_ = std::move(prefix.doc_lengths);
  index.directory_ = std::move(prefix.directory);
  index.stats_ = prefix.stats;
  if (mapping.size() != 0) {
    index.blob_offset_ = prefix.blob_offset;
    index.blob_bytes_ = prefix.blob_bytes;
    index.first_touch_micros_ = sweep_micros;
    index.mapping_ = std::move(mapping);
  } else {
    const auto* blob =
        reinterpret_cast<const uint8_t*>(file.data() + prefix.blob_offset);
    index.blob_.assign(blob, blob + prefix.blob_bytes);
  }
  return index;
}

Result<InvertedIndex> InvertedIndex::Deserialize(std::string_view data) {
  return FromFile(data, MmapFile());
}

Status InvertedIndex::Save(const std::string& path) const {
  std::string data;
  Serialize(&data);
  return WriteStringToFile(path, data);
}

Result<InvertedIndex> InvertedIndex::Load(const std::string& path,
                                          IndexMode mode) {
  if (mode == IndexMode::kMmap) {
    Result<MmapFile> mapped = MmapFile::Open(path);
    if (!mapped.ok()) return mapped.status();
    // The view stays valid across the move: the mapped pages stay put,
    // only their ownership passes to FromFile.
    const std::string_view file = mapped->view();
    return FromFile(file, std::move(*mapped));
  }
  std::string data;
  CAFE_RETURN_IF_ERROR(ReadFileToString(path, &data));
  return FromFile(data, MmapFile());
}

void InvertedIndex::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr || mapping_.size() == 0 || open_facts_recorded_) {
    return;
  }
  open_facts_recorded_ = true;
  registry->GetCounter("mmap_index.maps")->Add(1);
  registry->GetCounter("mmap_index.bytes_mapped")->Add(mapping_.size());
  registry->GetHistogram("mmap_index.first_touch_micros")
      ->Record(first_touch_micros_);
}

}  // namespace cafe
