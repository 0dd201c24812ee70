// Random-access stores of nucleotide sequences.
//
// SequenceStore keeps every sequence direct-coded (see direct_coding.h) in
// one contiguous blob with an in-memory byte-offset table, so sequences
// can be retrieved independently of insertion order — the access pattern
// of the fine-search phase, which pulls an arbitrary ranked subset of the
// collection. The collection file stores the blob alone (FromBlob
// rebuilds the table). An uncompressed PlainSequenceStore (plain_store.h)
// with the same interface is the experimental control.

#ifndef CAFE_SEQSTORE_SEQUENCE_STORE_H_
#define CAFE_SEQSTORE_SEQUENCE_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "seqstore/packed_view.h"
#include "util/status.h"

namespace cafe {

/// Interface shared by the compressed and plain stores so that retrieval
/// experiments can swap the representation.
class SequenceStoreInterface {
 public:
  virtual ~SequenceStoreInterface() = default;

  /// Appends a sequence; returns its id (dense, starting at 0).
  [[nodiscard]] virtual Result<uint32_t> Append(std::string_view seq) = 0;

  /// Materializes sequence `id` into `*out`.
  [[nodiscard]] virtual Status Get(uint32_t id, std::string* out) const = 0;

  /// Length in bases of sequence `id` (no decode of the payload).
  [[nodiscard]] virtual Result<size_t> Length(uint32_t id) const = 0;

  virtual uint32_t NumSequences() const = 0;
  virtual uint64_t TotalBases() const = 0;

  /// Bytes of the stored representation (blob + offset table).
  virtual uint64_t StorageBytes() const = 0;
};

/// Direct-coded store.
class SequenceStore final : public SequenceStoreInterface {
 public:
  SequenceStore() { offsets_.push_back(0); }

  [[nodiscard]] Result<uint32_t> Append(std::string_view seq) override;
  [[nodiscard]] Status Get(uint32_t id, std::string* out) const override;
  [[nodiscard]] Result<size_t> Length(uint32_t id) const override;
  uint32_t NumSequences() const override {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }
  uint64_t TotalBases() const override { return total_bases_; }
  uint64_t StorageBytes() const override {
    return blob_.size() + offsets_.size() * sizeof(uint64_t);
  }

  /// Zero-decode view of sequence `id`'s 2-bit packed payload (wildcards
  /// appear as their first ambiguity-set base). The view borrows the
  /// store's memory: valid until the store is mutated or destroyed.
  [[nodiscard]] Result<PackedView> GetPackedView(uint32_t id) const;

  /// The concatenated direct-coded sequences, in id order.
  std::span<const uint8_t> blob() const { return blob_; }

  /// Rebuilds a store from `count` sequences laid back to back in
  /// `blob` (a copy is kept). One walk parses every header: each
  /// sequence starts where the one before it ends, and the last must end
  /// exactly at the end of the blob; anything else is Corruption.
  [[nodiscard]] static Result<SequenceStore> FromBlob(std::span<const uint8_t> blob,
                                                      uint64_t count);

 private:
  std::vector<uint8_t> blob_;
  std::vector<uint64_t> offsets_;  // offsets_[i]..offsets_[i+1] is seq i
  uint64_t total_bases_ = 0;
};

}  // namespace cafe

#endif  // CAFE_SEQSTORE_SEQUENCE_STORE_H_
