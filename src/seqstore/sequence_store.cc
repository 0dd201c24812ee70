#include "seqstore/sequence_store.h"

#include "seqstore/direct_coding.h"

namespace cafe {

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

Result<SequenceStore> SequenceStore::FromBlob(std::span<const uint8_t> blob,
                                              uint64_t count) {
  // Every sequence takes at least one byte.
  if (count > blob.size()) {
    return Status::Corruption("sequence store: more sequences than bytes");
  }
  SequenceStore store;
  store.blob_.assign(blob.begin(), blob.end());
  store.offsets_.reserve(count + 1);
  uint64_t offset = 0;
  for (uint64_t i = 0; i < count; ++i) {
    size_t length = 0, payload_offset = 0;
    Status s = DirectLocatePayload(store.blob_.data() + offset,
                                   blob.size() - offset, &length,
                                   &payload_offset);
    if (!s.ok()) {
      return Status::Corruption("sequence store: sequence " +
                                std::to_string(i) + ": " + s.message());
    }
    offset += payload_offset + (length + 3) / 4;
    store.offsets_.push_back(offset);
    store.total_bases_ += length;
  }
  if (offset != blob.size()) {
    return Status::Corruption("sequence store: " +
                              std::to_string(blob.size() - offset) +
                              " bytes after the last sequence");
  }
  return store;
}

}  // namespace cafe
