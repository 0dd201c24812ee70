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

#include <string>
#include <utility>

#include "coding/byte_io.h"
#include "index/interval.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/timer.h"

namespace cafe {
namespace {

// Version 1 has no spaced-seed header field; indexes built without a
// pattern still serialize as v1 byte-for-byte, so every pre-existing
// index (and tool that compares default index files) is unaffected.
constexpr std::string_view kMagicV1("CAFIDX1\0", 8);
constexpr std::string_view kMagicV2("CAFIDX2\0", 8);

}  // namespace

Status InvertedIndex::ParseIndexPrefix(std::string_view body, bool v2,
                                       std::string_view* blob) {
  coding::ByteReader r(body, "index");
  uint8_t n8 = 0, g8 = 0;
  CAFE_RETURN_IF_ERROR(r.GetU8(&n8));
  CAFE_RETURN_IF_ERROR(r.GetU8(&g8));
  if (g8 > 1) return r.Fail("bad granularity");
  options_.interval_length = n8;
  options_.granularity = static_cast<IndexGranularity>(g8);
  CAFE_RETURN_IF_ERROR(r.GetU32(&options_.stride));
  CAFE_RETURN_IF_ERROR(r.GetDouble(&options_.stop_doc_fraction));
  if (v2) {
    uint8_t span = 0;
    std::string_view pattern;
    CAFE_RETURN_IF_ERROR(r.GetU8(&span));
    CAFE_RETURN_IF_ERROR(r.GetBytes(span, &pattern));
    options_.spaced_seed = pattern;
  }
  if (Status valid = options_.Validate(); !valid.ok()) {
    return r.Fail(valid.message());
  }

  uint64_t num_docs = 0;
  CAFE_RETURN_IF_ERROR(r.GetLength(&num_docs));
  doc_lengths_.resize(num_docs);
  for (uint32_t& length : doc_lengths_) {
    uint64_t stored = 0;  // length + 1
    CAFE_RETURN_IF_ERROR(r.GetVByte(&stored));
    if (stored - 1 > UINT32_MAX) {
      return r.Fail("document length exceeds 32 bits");
    }
    length = static_cast<uint32_t>(stored - 1);
  }

  directory_ = TermDirectory(options_.interval_length);
  const uint64_t universe = VocabularyUniverse(options_.interval_length);
  const bool positional =
      options_.granularity == IndexGranularity::kPositional;
  // Offsets are a running sum of gaps from the file: bound each step by
  // the body's bits so the sum cannot wrap, and the last one by the blob.
  const uint64_t body_bits = uint64_t{body.size()} * 8;
  uint64_t num_terms = 0;
  CAFE_RETURN_IF_ERROR(r.GetLength(&num_terms));
  uint64_t term = 0;
  uint64_t offset = 0;
  uint64_t total_postings = 0;
  uint32_t last_postings = 0;
  // Every position costs at least one bit, so the positional list before
  // one starting at `end` holds at most end - offset postings.
  auto check_list_bits = [&](uint64_t end) {
    return positional && last_postings > end - offset
               ? r.Fail("posting count exceeds the list's bits")
               : Status::OK();
  };
  for (uint64_t i = 0; i < num_terms; ++i) {
    uint64_t gap = 0;
    CAFE_RETURN_IF_ERROR(r.GetVByte(&gap));
    const uint64_t next = i == 0 ? gap - 1 : term + gap;
    if (i > 0 && next <= term) return r.Fail("terms out of order");
    if (next >= universe) return r.Fail("term out of range");
    term = next;
    TermEntry* e = directory_.FindOrCreate(static_cast<uint32_t>(term));
    CAFE_RETURN_IF_ERROR(r.GetVByte(&e->doc_count));
    CAFE_RETURN_IF_ERROR(r.GetVByte(&e->posting_count));
    CAFE_RETURN_IF_ERROR(r.GetVByte(&e->position_param));
    uint64_t offset_gap = 0;  // gap + 1
    CAFE_RETURN_IF_ERROR(r.GetVByte(&offset_gap));
    if (offset_gap - 1 > body_bits - offset) {
      return r.Fail("postings offset out of range");
    }
    CAFE_RETURN_IF_ERROR(check_list_bits(offset + offset_gap - 1));
    offset += offset_gap - 1;
    e->bit_offset = offset;
    if (e->doc_count > num_docs || e->posting_count < e->doc_count) {
      return r.Fail("bad term entry");
    }
    last_postings = e->posting_count;
    total_postings += e->posting_count;
  }

  uint64_t blob_bytes = 0;
  CAFE_RETURN_IF_ERROR(r.GetLength(&blob_bytes));
  if (blob_bytes != r.remaining()) return r.Fail("blob size mismatch");
  // Offsets never decrease, so the last one is the largest; every list
  // holds at least one posting, so it starts strictly inside the blob.
  if (num_terms > 0 && offset >= blob_bytes * 8) {
    return r.Fail("postings offset out of range");
  }
  CAFE_RETURN_IF_ERROR(check_list_bits(blob_bytes * 8));
  CAFE_RETURN_IF_ERROR(r.GetBytes(blob_bytes, blob));

  stats_.num_terms = num_terms;
  stats_.total_postings = total_postings;
  stats_.postings_bits = blob_bytes * 8;
  stats_.directory_bytes = directory_.MemoryBytes();
  stats_.bits_per_posting =
      total_postings == 0 ? 0.0
                          : static_cast<double>(blob_bytes * 8) /
                                static_cast<double>(total_postings);
  return Status::OK();
}

void InvertedIndex::Serialize(std::string* out) const {
  const bool v2 = !options_.spaced_seed.empty();
  coding::FileWriter w(out, v2 ? kMagicV2 : kMagicV1);
  w.PutU8(static_cast<uint8_t>(options_.interval_length));
  w.PutU8(static_cast<uint8_t>(options_.granularity));
  w.PutU32(options_.stride);
  w.PutDouble(options_.stop_doc_fraction);
  if (v2) {
    w.PutU8(static_cast<uint8_t>(options_.spaced_seed.size()));
    w.PutBytes(options_.spaced_seed);
  }

  w.PutVByte(doc_lengths_.size() + 1);
  for (uint32_t len : doc_lengths_) w.PutVByte(uint64_t{len} + 1);

  w.PutVByte(directory_.NumTerms() + 1);
  uint64_t prev_term = 0;
  uint64_t prev_offset = 0;
  bool first = true;
  directory_.ForEachTerm([&](uint32_t term, const TermEntry& e) {
    w.PutVByte(first ? uint64_t{term} + 1 : term - prev_term);
    w.PutVByte(e.doc_count);
    w.PutVByte(e.posting_count);
    w.PutVByte(e.position_param);
    w.PutVByte(e.bit_offset - prev_offset + 1);
    prev_term = term;
    prev_offset = e.bit_offset;
    first = false;
  });

  const std::span<const uint8_t> blob = Blob();
  w.PutVByte(blob.size() + 1);
  w.PutBytes(blob);
  w.Finish();

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
  // One sequential sweep verifies the CRC. Over a mapping it is also
  // the first touch of every page, which mmap_index.first_touch_micros
  // reports. Readahead is wide open for the sweep, then switched to
  // random for the point lookups that follow (advice on an empty
  // mapping is a no-op).
  WallTimer sweep_timer;
  mapping.Advise(MmapFile::Advice::kSequential);
  std::string_view body;
  CAFE_RETURN_IF_ERROR(
      coding::OpenFile(file, "index", {kMagicV1, kMagicV2}, &body));
  const auto sweep_micros = static_cast<uint64_t>(sweep_timer.Micros());
  mapping.Advise(MmapFile::Advice::kRandom);

  InvertedIndex index;
  std::string_view blob;
  CAFE_RETURN_IF_ERROR(
      index.ParseIndexPrefix(body, file.starts_with(kMagicV2), &blob));
  if (mapping.size() != 0) {
    index.blob_offset_ = static_cast<size_t>(blob.data() - file.data());
    index.blob_bytes_ = blob.size();
    index.first_touch_micros_ = sweep_micros;
    index.mapping_ = std::move(mapping);
  } else {
    const auto* bytes = reinterpret_cast<const uint8_t*>(blob.data());
    index.blob_.assign(bytes, bytes + blob.size());
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
