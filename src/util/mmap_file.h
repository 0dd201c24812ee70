// MmapFile: RAII wrapper over a read-only memory-mapped file.
//
// The mapping is the file: no read() copies, no userspace buffer, no
// cache to size — the kernel's page cache is the cache, shared across
// processes and evicted under memory pressure. A mapped region is
// immutable from this side (PROT_READ) and valid for the lifetime of
// the MmapFile object; moving the object transfers ownership of the
// mapping, destruction unmaps.
//
// Advise() forwards access-pattern hints to madvise(2) so a consumer
// can tell the kernel how it will touch the pages: kSequential before
// a one-pass CRC sweep (aggressive readahead), kRandom for point
// postings lookups (no readahead pollution), kWillNeed to prefault a
// range it is about to decode. Hints are best-effort; failure to
// advise is never an error.
//
// Thread safety: the mapped bytes are read-only and the object is
// immutable after Open, so any number of threads may read data()
// concurrently with no synchronization.

#ifndef CAFE_UTIL_MMAP_FILE_H_
#define CAFE_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cafe {

class MmapFile {
 public:
  enum class Advice {
    kNormal,      // default kernel heuristics
    kSequential,  // aggressive readahead, drop behind
    kRandom,      // disable readahead
    kWillNeed,    // prefault: start reading these pages now
    kDontNeed,    // the pages will not be touched again soon
  };

  /// Maps `path` read-only in its entirety. Pages are faulted in on
  /// first touch. Empty files map to a valid object with size() == 0
  /// and data() == nullptr.
  [[nodiscard]] static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr || size_ == 0; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

  /// Applies an access-pattern hint to [offset, offset + length).
  /// length 0 means "to the end of the mapping". Offsets are rounded
  /// down to page boundaries as madvise requires. Best-effort: always
  /// safe to call, including on an empty mapping.
  void Advise(Advice advice, size_t offset = 0, size_t length = 0) const;

 private:
  MmapFile(uint8_t* data, size_t size) : data_(data), size_(size) {}

  void Unmap();

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace cafe

#endif  // CAFE_UTIL_MMAP_FILE_H_
