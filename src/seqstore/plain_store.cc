#include "seqstore/plain_store.h"

#include "alphabet/nucleotide.h"

namespace cafe {

Result<uint32_t> PlainSequenceStore::Append(std::string_view seq) {
  if (!IsValidSequence(seq)) {
    return Status::InvalidArgument("non-IUPAC character in sequence");
  }
  blob_.append(seq);
  offsets_.push_back(blob_.size());
  return static_cast<uint32_t>(offsets_.size() - 2);
}

Status PlainSequenceStore::Get(uint32_t id, std::string* out) const {
  if (id + 1 >= offsets_.size()) {
    return Status::NotFound("sequence id " + std::to_string(id));
  }
  out->assign(blob_, offsets_[id], offsets_[id + 1] - offsets_[id]);
  return Status::OK();
}

Result<size_t> PlainSequenceStore::Length(uint32_t id) const {
  if (id + 1 >= offsets_.size()) {
    return Status::NotFound("sequence id " + std::to_string(id));
  }
  return static_cast<size_t>(offsets_[id + 1] - offsets_[id]);
}

}  // namespace cafe
