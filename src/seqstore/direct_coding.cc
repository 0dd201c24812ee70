#include "seqstore/direct_coding.h"

#include <array>

#include "alphabet/nucleotide.h"
#include "coding/elias.h"
#include "coding/golomb.h"
#include "util/bitio.h"

namespace cafe {
namespace {

// 256-entry expansion table: byte of four 2-bit codes -> four base chars.
struct ExpandTable {
  std::array<std::array<char, 4>, 256> rows;
  ExpandTable() {
    for (int b = 0; b < 256; ++b) {
      rows[b][0] = CodeToBase((b >> 6) & 3);
      rows[b][1] = CodeToBase((b >> 4) & 3);
      rows[b][2] = CodeToBase((b >> 2) & 3);
      rows[b][3] = CodeToBase(b & 3);
    }
  }
};

const ExpandTable& Expander() {
  static const ExpandTable table;
  return table;
}

// First base in an ambiguity mask, as a 2-bit code.
int MaskFirstBaseCode(uint8_t mask) {
  for (int i = 0; i < 4; ++i) {
    if (mask & (1u << i)) return i;
  }
  return 0;
}

// One wildcard of a decoded sequence.
struct Wildcard {
  size_t position;  // 0-based
  char letter;      // IUPAC
};

// The one reader of a direct-coded header. It checks, in stream order:
// the length and the exception count (each exception costs at least a
// Golomb bit and a 4-bit mask); every Golomb position inside the
// sequence; every mask non-zero; the byte alignment; and that the
// ceil(length / 4) payload bytes fit in what is left (compared as
// length > 4 x left, since (length + 3) / 4 wraps). The wildcards go to
// *wildcards unless it is null.
Status ParseHeader(const uint8_t* data, size_t size, size_t* length,
                   size_t* payload_offset, std::vector<Wildcard>* wildcards) {
  BitReader r(data, size);
  const uint64_t n = coding::DecodeGamma(&r) - 1;
  const uint64_t w = coding::DecodeGamma(&r) - 1;
  if (r.overflowed() || w > n || w > r.bits_remaining() / 5) {
    return Status::Corruption("direct coding: bad header");
  }
  if (w > 0) {
    if (wildcards != nullptr) wildcards->resize(w);
    const uint64_t b = coding::OptimalGolombParameter(w, n);
    uint64_t prev = 0;  // 1-based position of the previous wildcard
    for (uint64_t i = 0; i < w; ++i) {
      const uint64_t gap = coding::DecodeGolomb(&r, b);
      if (gap > n - prev) {
        return Status::Corruption("direct coding: bad position");
      }
      prev += gap;
      if (wildcards != nullptr) {
        (*wildcards)[i].position = static_cast<size_t>(prev - 1);
      }
    }
    if (r.overflowed() || r.bits_remaining() / 4 < w) {
      return Status::Corruption("direct coding: truncated exceptions");
    }
    for (uint64_t i = 0; i < w; ++i) {
      const auto mask = static_cast<uint8_t>(r.ReadBits(4));
      if (mask == 0) return Status::Corruption("direct coding: zero mask");
      if (wildcards != nullptr) (*wildcards)[i].letter = MaskToIupac(mask);
    }
  }
  r.AlignToByte();
  const size_t start = r.bit_position() / 8;
  if (n > 4 * uint64_t{size - start}) {
    return Status::Corruption("direct coding: truncated payload");
  }
  *length = static_cast<size_t>(n);
  *payload_offset = start;
  return Status::OK();
}

}  // namespace

Status DirectEncodeAppend(std::string_view seq, std::vector<uint8_t>* out) {
  const size_t n = seq.size();

  // Collect wildcard exceptions first.
  std::vector<uint32_t> positions;
  std::vector<uint8_t> masks;
  for (size_t i = 0; i < n; ++i) {
    char c = seq[i];
    if (BaseToCode(c) >= 0) continue;
    uint8_t mask = IupacMask(c);
    if (mask == 0) {
      return Status::InvalidArgument(
          std::string("non-IUPAC character '") + c + "' at position " +
          std::to_string(i));
    }
    positions.push_back(static_cast<uint32_t>(i));
    masks.push_back(mask);
  }

  BitWriter w;
  coding::EncodeGamma(&w, static_cast<uint64_t>(n) + 1);
  coding::EncodeGamma(&w, static_cast<uint64_t>(positions.size()) + 1);
  if (!positions.empty()) {
    uint64_t b = coding::OptimalGolombParameter(positions.size(), n);
    uint64_t prev = 0;
    for (uint32_t p : positions) {
      coding::EncodeGolomb(&w, p + 1 - prev, b);
      prev = p + 1;
    }
    for (uint8_t m : masks) w.WriteBits(m, 4);
  }
  w.AlignToByte();

  // Byte-aligned 2-bit payload.
  uint8_t acc = 0;
  int filled = 0;
  for (size_t i = 0; i < n; ++i) {
    int code = BaseToCode(seq[i]);
    if (code < 0) code = MaskFirstBaseCode(IupacMask(seq[i]));
    acc = static_cast<uint8_t>((acc << 2) | code);
    if (++filled == 4) {
      w.WriteBits(acc, 8);
      acc = 0;
      filled = 0;
    }
  }
  if (filled != 0) {
    acc = static_cast<uint8_t>(acc << (2 * (4 - filled)));
    w.WriteBits(acc, 8);
  }

  std::vector<uint8_t> bytes = w.Finish();
  out->insert(out->end(), bytes.begin(), bytes.end());
  return Status::OK();
}

Status DirectDecode(const uint8_t* data, size_t size, std::string* out) {
  size_t n = 0, payload_start = 0;
  std::vector<Wildcard> wildcards;
  CAFE_RETURN_IF_ERROR(
      ParseHeader(data, size, &n, &payload_start, &wildcards));

  out->resize(n);
  char* dst = out->data();
  const uint8_t* src = data + payload_start;
  const ExpandTable& table = Expander();
  size_t full = n / 4;
  for (size_t i = 0; i < full; ++i) {
    const auto& row = table.rows[src[i]];
    dst[0] = row[0];
    dst[1] = row[1];
    dst[2] = row[2];
    dst[3] = row[3];
    dst += 4;
  }
  size_t rem = n % 4;
  if (rem != 0) {
    const auto& row = table.rows[src[full]];
    for (size_t j = 0; j < rem; ++j) dst[j] = row[j];
  }

  for (const Wildcard& wc : wildcards) (*out)[wc.position] = wc.letter;
  return Status::OK();
}

Status DirectLocatePayload(const uint8_t* data, size_t size,
                           size_t* length, size_t* payload_offset) {
  return ParseHeader(data, size, length, payload_offset, nullptr);
}

Status DirectDecodeLength(const uint8_t* data, size_t size, size_t* length) {
  size_t payload_offset = 0;
  return DirectLocatePayload(data, size, length, &payload_offset);
}

}  // namespace cafe
