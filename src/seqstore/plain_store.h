// Uncompressed (one ASCII byte per base) sequence store with the same
// interface as the direct-coded SequenceStore. Experimental control for
// the storage/retrieval comparison (experiment E7).

#ifndef CAFE_SEQSTORE_PLAIN_STORE_H_
#define CAFE_SEQSTORE_PLAIN_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "seqstore/sequence_store.h"

namespace cafe {

class PlainSequenceStore final : public SequenceStoreInterface {
 public:
  PlainSequenceStore() { offsets_.push_back(0); }

  [[nodiscard]] Result<uint32_t> Append(std::string_view seq) override;
  [[nodiscard]] Status Get(uint32_t id, std::string* out) const override;
  [[nodiscard]] Result<size_t> Length(uint32_t id) const override;
  uint32_t NumSequences() const override {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }
  uint64_t TotalBases() const override { return blob_.size(); }
  uint64_t StorageBytes() const override {
    return blob_.size() + offsets_.size() * sizeof(uint64_t);
  }

 private:
  std::string blob_;
  std::vector<uint64_t> offsets_;
};

}  // namespace cafe

#endif  // CAFE_SEQSTORE_PLAIN_STORE_H_
