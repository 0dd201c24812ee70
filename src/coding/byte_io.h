// Byte-level I/O shared by every cafe file format and wire payload: one
// writer, one bounds-checked reader, and the checksummed frame of the
// three file formats (docs/FORMATS.md). Integers are little-endian; the
// vbyte code is the one in vbyte.h, byte-aligned.
//
// Outside the bit-level postings decode, the reader is the only cursor
// over these binary formats, and it holds every one to three rules:
//   - a length or count is checked against the bytes left (n > left,
//     never pos + n > size, which wraps) before it sizes an allocation
//     or a loop;
//   - a vbyte read into a 32-bit field is range-checked, never narrowed;
//   - reading past the end is Corruption.

#ifndef CAFE_CODING_BYTE_IO_H_
#define CAFE_CODING_BYTE_IO_H_

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cafe::coding {

/// Appends to a string it does not own.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  /// vbyte(v) for v >= 1.
  void PutVByte(uint64_t v);
  void PutBytes(std::string_view bytes) { out_->append(bytes); }
  void PutBytes(std::span<const uint8_t> bytes);
  /// vbyte(size + 1), then the bytes.
  void PutVByteString(std::string_view s);
  /// u32 size, then the bytes.
  void PutU32String(std::string_view s);

 protected:
  std::string* out_;

 private:
  void PutLittleEndian(uint64_t v, int bytes);
};

/// Bounds-checked cursor over bytes it does not own. Every error is
/// Corruption and names the format: "<what>: truncated".
class ByteReader {
 public:
  ByteReader(std::string_view data, std::string_view what)
      : data_(data), what_(what) {}

  [[nodiscard]] Status GetU8(uint8_t* v) { return GetLittleEndian(v); }
  [[nodiscard]] Status GetU16(uint16_t* v) { return GetLittleEndian(v); }
  [[nodiscard]] Status GetU32(uint32_t* v) { return GetLittleEndian(v); }
  [[nodiscard]] Status GetU64(uint64_t* v) { return GetLittleEndian(v); }
  [[nodiscard]] Status GetDouble(double* v);
  /// One vbyte value, 1 <= v < 2^64: more than ten bytes, or a value
  /// that does not fit 64 bits, is Corruption. Inline, since index
  /// directories hold several per term.
  [[nodiscard]] Status GetVByte(uint64_t* v) {
    uint64_t x = 0;
    // Ten 7-bit groups cover 64 bits; the tenth may carry only bit 63,
    // and the code stores v - 1, so the all-ones word would be v = 2^64.
    for (int shift = 0; shift <= 63; shift += 7) {
      if (pos_ == data_.size()) return Fail("truncated");
      const auto byte = static_cast<uint8_t>(data_[pos_++]);
      const uint64_t group = byte & 0x7F;
      if (shift == 63 && group > 1) break;
      x |= group << shift;
      if ((byte & 0x80) != 0) {
        if (x == std::numeric_limits<uint64_t>::max()) break;
        *v = x + 1;
        return Status::OK();
      }
    }
    return Fail("vbyte exceeds 64 bits");
  }
  /// A vbyte read into a 32-bit field: Corruption if it does not fit.
  [[nodiscard]] Status GetVByte(uint32_t* v) {
    uint64_t wide = 0;
    CAFE_RETURN_IF_ERROR(GetVByte(&wide));
    if (wide > std::numeric_limits<uint32_t>::max()) {
      return Fail("value exceeds 32 bits");
    }
    *v = static_cast<uint32_t>(wide);
    return Status::OK();
  }
  /// A length or count n stored as vbyte(n + 1): Corruption if n
  /// exceeds the bytes left, since each byte or item costs at least one.
  [[nodiscard]] Status GetLength(uint64_t* n);
  /// The next n bytes, viewed in place.
  [[nodiscard]] Status GetBytes(uint64_t n, std::string_view* out);
  /// The PutVByteString and PutU32String forms.
  [[nodiscard]] Status GetVByteString(std::string* s);
  [[nodiscard]] Status GetU32String(std::string* s);

  /// Corruption unless n items of at least `item_bytes` each fit in the
  /// bytes left; call before sizing anything by a fixed-width count.
  [[nodiscard]] Status CheckCount(uint64_t n, size_t item_bytes) const;
  /// Corruption unless every byte has been read: a well-formed writer
  /// never pads.
  [[nodiscard]] Status ExpectDone() const;

  /// Corruption naming the format: "<what>: <why>". Parsers report
  /// their own structural checks through it too.
  [[nodiscard]] Status Fail(std::string_view why) const;

  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  Status GetLittleEndian(T* v) {
    if (sizeof(T) > remaining()) return Fail("truncated");
    uint64_t x = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      x |= uint64_t{static_cast<uint8_t>(data_[pos_++])} << (8 * i);
    }
    *v = static_cast<T>(x);
    return Status::OK();
  }

  std::string_view data_;
  std::string_view what_;
  size_t pos_ = 0;
};

// --- The checksummed file frame ------------------------------------
//
// Every cafe file is an 8-byte magic, a body, and a u32 CRC-32 of the
// magic and the body.

inline constexpr size_t kFileMagicBytes = 8;

/// Writes one framed file into *out, which it clears: the magic here,
/// the body through the ByteWriter calls, the trailer in Finish.
class FileWriter : public ByteWriter {
 public:
  FileWriter(std::string* out, std::string_view magic);
  void Finish();
};

/// Checks the frame of `file`: "<what>: too short", "<what>: bad magic"
/// unless its magic is one of `magics`, "<what>: checksum mismatch". On
/// success *body views the bytes between the magic and the trailer.
[[nodiscard]] Status OpenFile(std::string_view file, std::string_view what,
                              std::initializer_list<std::string_view> magics,
                              std::string_view* body);

}  // namespace cafe::coding

#endif  // CAFE_CODING_BYTE_IO_H_
