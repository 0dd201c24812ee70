#include "collection/collection.h"

#include "coding/byte_io.h"
#include "util/env.h"

namespace cafe {
namespace {

constexpr std::string_view kMagic("CAFCOL2\0", 8);

}  // namespace

Result<uint32_t> SequenceCollection::Add(std::string_view id,
                                         std::string_view description,
                                         std::string_view sequence) {
  if (id.empty()) {
    return Status::InvalidArgument("empty sequence identifier");
  }
  Result<uint32_t> seq_id = store_.Append(sequence);
  if (!seq_id.ok()) return seq_id.status();
  names_.emplace_back(id);
  descriptions_.emplace_back(description);
  return *seq_id;
}

Result<SequenceCollection> SequenceCollection::FromFasta(
    const std::vector<FastaRecord>& records) {
  SequenceCollection col;
  for (const FastaRecord& rec : records) {
    Result<uint32_t> r = col.Add(rec.id, rec.description, rec.sequence);
    if (!r.ok()) return r.status();
  }
  return col;
}

Status SequenceCollection::GetSequence(uint32_t id, std::string* out) const {
  return store_.Get(id, out);
}

const std::string& SequenceCollection::Name(uint32_t id) const {
  static const std::string kEmpty;
  return id < names_.size() ? names_[id] : kEmpty;
}

const std::string& SequenceCollection::Description(uint32_t id) const {
  static const std::string kEmpty;
  return id < descriptions_.size() ? descriptions_[id] : kEmpty;
}

Result<size_t> SequenceCollection::SequenceLength(uint32_t id) const {
  return store_.Length(id);
}

uint64_t SequenceCollection::StorageBytes() const {
  uint64_t names = 0;
  for (const auto& n : names_) names += n.size();
  for (const auto& d : descriptions_) names += d.size();
  return store_.StorageBytes() + names;
}

void SequenceCollection::Serialize(std::string* out) const {
  coding::FileWriter w(out, kMagic);
  w.PutVByte(names_.size() + 1);
  for (size_t i = 0; i < names_.size(); ++i) {
    w.PutVByteString(names_[i]);
    w.PutVByteString(descriptions_[i]);
  }
  w.PutVByte(store_.blob().size() + 1);
  w.PutBytes(store_.blob());
  w.Finish();
}

Result<SequenceCollection> SequenceCollection::Deserialize(
    std::string_view data) {
  std::string_view body;
  CAFE_RETURN_IF_ERROR(coding::OpenFile(data, "collection", {kMagic}, &body));
  coding::ByteReader r(body, "collection");
  uint64_t count = 0;
  CAFE_RETURN_IF_ERROR(r.GetLength(&count));

  SequenceCollection col;
  col.names_.resize(count);
  col.descriptions_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    CAFE_RETURN_IF_ERROR(r.GetVByteString(&col.names_[i]));
    CAFE_RETURN_IF_ERROR(r.GetVByteString(&col.descriptions_[i]));
  }

  uint64_t blob_size = 0;
  std::string_view blob;
  CAFE_RETURN_IF_ERROR(r.GetLength(&blob_size));
  CAFE_RETURN_IF_ERROR(r.GetBytes(blob_size, &blob));
  CAFE_RETURN_IF_ERROR(r.ExpectDone());
  Result<SequenceStore> store = SequenceStore::FromBlob(
      {reinterpret_cast<const uint8_t*>(blob.data()), blob.size()}, count);
  if (!store.ok()) return store.status();
  col.store_ = std::move(*store);
  return col;
}

Status SequenceCollection::Save(const std::string& path) const {
  std::string data;
  Serialize(&data);
  return WriteStringToFile(path, data);
}

Result<SequenceCollection> SequenceCollection::Load(const std::string& path) {
  std::string data;
  Status s = ReadFileToString(path, &data);
  if (!s.ok()) return s;
  return Deserialize(data);
}

}  // namespace cafe
