#include "index/index_reader.h"

#include <utility>

namespace cafe {

Result<IndexMode> ParseIndexMode(const std::string& name) {
  if (name == "memory" || name == "mem") return IndexMode::kMemory;
  if (name == "mmap") return IndexMode::kMmap;
  return Status::InvalidArgument("unknown index mode '" + name +
                                 "' (want memory or mmap)");
}

const char* IndexModeName(IndexMode mode) {
  switch (mode) {
    case IndexMode::kMemory:
      return "memory";
    case IndexMode::kMmap:
      return "mmap";
  }
  return "unknown";
}

Result<IndexReader> IndexReader::Open(const std::string& path,
                                      IndexMode mode) {
  Result<InvertedIndex> index = InvertedIndex::Load(path, mode);
  if (!index.ok()) return index.status();
  return IndexReader(std::move(*index));
}

}  // namespace cafe
