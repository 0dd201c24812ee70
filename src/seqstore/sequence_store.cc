#include "seqstore/sequence_store.h"

#include "coding/byte_io.h"
#include "seqstore/direct_coding.h"
#include "util/env.h"

namespace cafe {
namespace {

constexpr std::string_view kMagic("CAFSEQ1\0", 8);

}  // namespace

Result<uint32_t> SequenceStore::Append(std::string_view seq) {
  Status s = DirectEncodeAppend(seq, &blob_);
  if (!s.ok()) return s;
  offsets_.push_back(blob_.size());
  total_bases_ += seq.size();
  return static_cast<uint32_t>(offsets_.size() - 2);
}

Status SequenceStore::Get(uint32_t id, std::string* out) const {
  if (id + 1 >= offsets_.size()) {
    return Status::NotFound("sequence id " + std::to_string(id));
  }
  uint64_t begin = offsets_[id];
  uint64_t end = offsets_[id + 1];
  return DirectDecode(blob_.data() + begin, end - begin, out);
}

Status SequenceStore::GetRange(uint32_t id, size_t start, size_t count,
                               std::string* out) const {
  if (id + 1 >= offsets_.size()) {
    return Status::NotFound("sequence id " + std::to_string(id));
  }
  uint64_t begin = offsets_[id];
  uint64_t end = offsets_[id + 1];
  return DirectDecodeRange(blob_.data() + begin, end - begin, start, count,
                           out);
}

Result<size_t> SequenceStore::Length(uint32_t id) const {
  if (id + 1 >= offsets_.size()) {
    return Status::NotFound("sequence id " + std::to_string(id));
  }
  size_t n = 0;
  Status s = DirectDecodeLength(blob_.data() + offsets_[id],
                                offsets_[id + 1] - offsets_[id], &n);
  if (!s.ok()) return s;
  return n;
}

Result<PackedView> SequenceStore::GetPackedView(uint32_t id) const {
  if (id + 1 >= offsets_.size()) {
    return Status::NotFound("sequence id " + std::to_string(id));
  }
  uint64_t begin = offsets_[id];
  uint64_t end = offsets_[id + 1];
  size_t length = 0, payload_offset = 0;
  CAFE_RETURN_IF_ERROR(DirectLocatePayload(blob_.data() + begin,
                                           end - begin, &length,
                                           &payload_offset));
  return PackedView(blob_.data() + begin + payload_offset, length);
}

void SequenceStore::Serialize(std::string* out) const {
  coding::FileWriter w(out, kMagic);
  w.PutU64(offsets_.size() - 1);  // sequence count
  w.PutU64(total_bases_);
  w.PutU64(blob_.size());
  for (uint64_t off : offsets_) w.PutU64(off);
  w.PutBytes(blob_);
  w.Finish();
}

Result<SequenceStore> SequenceStore::Deserialize(std::string_view data) {
  std::string_view body;
  CAFE_RETURN_IF_ERROR(
      coding::OpenFile(data, "sequence store", {kMagic}, &body));
  coding::ByteReader r(body, "sequence store");
  SequenceStore store;
  uint64_t count = 0, blob_size = 0;
  CAFE_RETURN_IF_ERROR(r.GetU64(&count));
  CAFE_RETURN_IF_ERROR(r.GetU64(&store.total_bases_));
  CAFE_RETURN_IF_ERROR(r.GetU64(&blob_size));
  CAFE_RETURN_IF_ERROR(r.CheckCount(count, 8));  // count + 1 u64 offsets
  store.offsets_.resize(count + 1);
  for (uint64_t& off : store.offsets_) CAFE_RETURN_IF_ERROR(r.GetU64(&off));
  std::string_view blob;
  CAFE_RETURN_IF_ERROR(r.GetBytes(blob_size, &blob));
  CAFE_RETURN_IF_ERROR(r.ExpectDone());
  if (store.offsets_[0] != 0 || store.offsets_[count] != blob_size) {
    return r.Fail("bad offsets");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (store.offsets_[i] > store.offsets_[i + 1]) {
      return r.Fail("unsorted offsets");
    }
  }
  const auto* bytes = reinterpret_cast<const uint8_t*>(blob.data());
  store.blob_.assign(bytes, bytes + blob.size());
  return store;
}

Status SequenceStore::Save(const std::string& path) const {
  std::string data;
  Serialize(&data);
  return WriteStringToFile(path, data);
}

Result<SequenceStore> SequenceStore::Load(const std::string& path) {
  std::string data;
  Status s = ReadFileToString(path, &data);
  if (!s.ok()) return s;
  return Deserialize(data);
}

}  // namespace cafe
