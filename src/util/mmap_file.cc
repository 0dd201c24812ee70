#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace cafe {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

Result<MmapFile> MmapFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(hicpp-vararg)
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open", path));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("cannot stat", path));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("not a regular file: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return MmapFile(nullptr, 0);
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is
  // no longer needed either way.
  ::close(fd);
  if (mapped == MAP_FAILED) {
    return Status::IOError(ErrnoMessage("cannot mmap", path));
  }
  return MmapFile(static_cast<uint8_t*>(mapped), size);
}

MmapFile::~MmapFile() { Unmap(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MmapFile::Unmap() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

void MmapFile::Advise(Advice advice, size_t offset, size_t length) const {
  if (data_ == nullptr || offset >= size_) return;
  if (length == 0 || offset + length > size_) length = size_ - offset;
  // madvise requires a page-aligned start address.
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t aligned = offset & ~(page - 1);
  length += offset - aligned;
  int flag = MADV_NORMAL;
  switch (advice) {
    case Advice::kNormal:
      flag = MADV_NORMAL;
      break;
    case Advice::kSequential:
      flag = MADV_SEQUENTIAL;
      break;
    case Advice::kRandom:
      flag = MADV_RANDOM;
      break;
    case Advice::kWillNeed:
      flag = MADV_WILLNEED;
      break;
    case Advice::kDontNeed:
      flag = MADV_DONTNEED;
      break;
  }
  // Best-effort hint; ignore failures by contract.
  ::madvise(data_ + aligned, length, flag);
}

}  // namespace cafe
