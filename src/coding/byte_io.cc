#include "coding/byte_io.h"

#include <algorithm>

#include "util/check.h"
#include "util/crc32.h"

namespace cafe::coding {

void ByteWriter::PutLittleEndian(uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutVByte(uint64_t v) {
  CAFE_DCHECK(v >= 1);
  uint64_t x = v - 1;
  while (x >= 128) {
    PutU8(static_cast<uint8_t>(x & 0x7F));  // continuation: high bit clear
    x >>= 7;
  }
  PutU8(static_cast<uint8_t>(x | 0x80));  // terminator: high bit set
}

void ByteWriter::PutBytes(std::span<const uint8_t> bytes) {
  out_->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

void ByteWriter::PutVByteString(std::string_view s) {
  PutVByte(uint64_t{s.size()} + 1);
  PutBytes(s);
}

void ByteWriter::PutU32String(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s);
}

Status ByteReader::Fail(std::string_view why) const {
  return Status::Corruption(std::string(what_) + ": " + std::string(why));
}

Status ByteReader::GetDouble(double* v) {
  uint64_t bits = 0;
  CAFE_RETURN_IF_ERROR(GetU64(&bits));
  *v = std::bit_cast<double>(bits);
  return Status::OK();
}

Status ByteReader::GetLength(uint64_t* n) {
  uint64_t v = 0;
  CAFE_RETURN_IF_ERROR(GetVByte(&v));
  if (v - 1 > remaining()) return Fail("length exceeds the bytes left");
  *n = v - 1;
  return Status::OK();
}

Status ByteReader::GetBytes(uint64_t n, std::string_view* out) {
  if (n > remaining()) return Fail("truncated");
  *out = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::GetVByteString(std::string* s) {
  uint64_t size = 0;
  std::string_view bytes;
  CAFE_RETURN_IF_ERROR(GetLength(&size));
  CAFE_RETURN_IF_ERROR(GetBytes(size, &bytes));
  s->assign(bytes);
  return Status::OK();
}

Status ByteReader::GetU32String(std::string* s) {
  uint32_t size = 0;
  std::string_view bytes;
  CAFE_RETURN_IF_ERROR(GetU32(&size));
  CAFE_RETURN_IF_ERROR(GetBytes(size, &bytes));
  s->assign(bytes);
  return Status::OK();
}

Status ByteReader::CheckCount(uint64_t n, size_t item_bytes) const {
  if (n > remaining() / item_bytes) {
    return Fail("count exceeds the bytes left");
  }
  return Status::OK();
}

Status ByteReader::ExpectDone() const {
  if (pos_ != data_.size()) return Fail("trailing bytes");
  return Status::OK();
}

FileWriter::FileWriter(std::string* out, std::string_view magic)
    : ByteWriter(out) {
  CAFE_DCHECK(magic.size() == kFileMagicBytes);
  out_->clear();
  PutBytes(magic);
}

void FileWriter::Finish() { PutU32(Crc32(out_->data(), out_->size())); }

Status OpenFile(std::string_view file, std::string_view what,
                std::initializer_list<std::string_view> magics,
                std::string_view* body) {
  ByteReader r(file, what);
  if (file.size() < kFileMagicBytes + 4) return r.Fail("too short");
  const size_t end = file.size() - 4;
  std::string_view magic, inside;
  uint32_t stored_crc = 0;
  CAFE_RETURN_IF_ERROR(r.GetBytes(kFileMagicBytes, &magic));
  if (std::find(magics.begin(), magics.end(), magic) == magics.end()) {
    return r.Fail("bad magic");
  }
  CAFE_RETURN_IF_ERROR(r.GetBytes(end - kFileMagicBytes, &inside));
  CAFE_RETURN_IF_ERROR(r.GetU32(&stored_crc));
  if (Crc32(file.data(), end) != stored_crc) {
    return r.Fail("checksum mismatch");
  }
  *body = inside;
  return Status::OK();
}

}  // namespace cafe::coding
