// SequenceCollection: the nucleotide database. Pairs the direct-coded
// sequence store with record identifiers/descriptions and an on-disk
// format (docs/FORMATS.md: the names, then the store's blob). This is the
// object the index is built over and that both search phases read from.

#ifndef CAFE_COLLECTION_COLLECTION_H_
#define CAFE_COLLECTION_COLLECTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "collection/fasta.h"
#include "seqstore/sequence_store.h"

namespace cafe {

class SequenceCollection {
 public:
  /// Adds one sequence (normalized IUPAC); returns its dense id.
  [[nodiscard]] Result<uint32_t> Add(std::string_view id, std::string_view description,
                       std::string_view sequence);

  /// Builds a collection from parsed FASTA records.
  [[nodiscard]] static Result<SequenceCollection> FromFasta(
      const std::vector<FastaRecord>& records);

  /// Materializes sequence `id`.
  [[nodiscard]] Status GetSequence(uint32_t id, std::string* out) const;

  /// Record identifier (FASTA id) of sequence `id`; empty if out of range.
  const std::string& Name(uint32_t id) const;
  const std::string& Description(uint32_t id) const;

  /// Length in bases of sequence `id` without decoding it.
  [[nodiscard]] Result<size_t> SequenceLength(uint32_t id) const;

  uint32_t NumSequences() const { return store_.NumSequences(); }
  uint64_t TotalBases() const { return store_.TotalBases(); }

  /// Bytes of the in-memory representation (compressed blob + names).
  uint64_t StorageBytes() const;

  const SequenceStore& store() const { return store_; }

  void Serialize(std::string* out) const;
  [[nodiscard]] static Result<SequenceCollection> Deserialize(std::string_view data);
  [[nodiscard]] Status Save(const std::string& path) const;
  [[nodiscard]] static Result<SequenceCollection> Load(const std::string& path);

 private:
  SequenceStore store_;
  std::vector<std::string> names_;
  std::vector<std::string> descriptions_;
};

}  // namespace cafe

#endif  // CAFE_COLLECTION_COLLECTION_H_
