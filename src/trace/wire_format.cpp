#include "trace/wire_format.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>

namespace pred::wire {

const char* to_string(FrameError e) {
  switch (e) {
    case FrameError::kOk: return "ok";
    case FrameError::kBadMagic: return "bad-magic";
    case FrameError::kVersionSkew: return "version-skew";
    case FrameError::kTruncated: return "truncated";
    case FrameError::kBadCrc: return "bad-crc";
    case FrameError::kTooLarge: return "too-large";
  }
  return "?";
}

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: table[0] is the
/// classic byte-at-a-time table, and table[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight table lookups fold one 8-byte word.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

void put_u16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xffffffffu;
  // Eight bytes per step, read as two little-endian words (byte loads, so
  // alignment does not matter), then the tail a byte at a time.
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = get_u32(p) ^ c;
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  put_u32(&out, kFrameMagic);
  put_u16(&out, kWireVersion);
  put_u16(&out, static_cast<std::uint16_t>(type));
  put_u32(&out, static_cast<std::uint32_t>(payload.size()));
  put_u32(&out, crc32(payload));
  out.append(payload);
  return out;
}

FrameError parse_header(const void* header, FrameHeader* out) {
  const auto* p = static_cast<const unsigned char*>(header);
  if (get_u32(p) != kFrameMagic) return FrameError::kBadMagic;
  const std::uint16_t version = get_u16(p + 4);
  if (version > kWireVersion || version == 0) return FrameError::kVersionSkew;
  out->type = static_cast<FrameType>(get_u16(p + 6));
  out->length = get_u32(p + 8);
  out->crc = get_u32(p + 12);
  return FrameError::kOk;
}

FrameError parse_frame(std::string_view bytes, Frame* out,
                       std::size_t* consumed) {
  *consumed = 0;
  if (bytes.size() < kFrameHeaderSize) {
    // Not enough to even validate the magic — but if what we do have
    // already disagrees, say so (a mispositioned reader should not wait
    // forever for "more" of a frame that will never materialize).
    if (bytes.size() >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
      if (get_u32(p) != kFrameMagic) return FrameError::kBadMagic;
    }
    return FrameError::kTruncated;
  }
  FrameHeader h;
  if (const FrameError e = parse_header(bytes.data(), &h);
      e != FrameError::kOk) {
    return e;
  }
  if (bytes.size() < kFrameHeaderSize + h.length) {
    return FrameError::kTruncated;
  }
  const std::string_view payload = bytes.substr(kFrameHeaderSize, h.length);
  if (crc32(payload) != h.crc) return FrameError::kBadCrc;
  out->type = h.type;
  out->payload.assign(payload);
  *consumed = kFrameHeaderSize + h.length;
  return FrameError::kOk;
}

FrameError read_frame(std::istream& in, Frame* out) {
  char header[kFrameHeaderSize];
  in.read(header, sizeof header);
  if (in.gcount() == 0) return FrameError::kTruncated;
  if (static_cast<std::size_t>(in.gcount()) < sizeof header) {
    const auto* p = reinterpret_cast<const unsigned char*>(header);
    if (in.gcount() >= 4 && get_u32(p) != kFrameMagic) {
      return FrameError::kBadMagic;
    }
    return FrameError::kTruncated;
  }
  FrameHeader h;
  if (const FrameError e = parse_header(header, &h); e != FrameError::kOk) {
    return e;
  }
  const std::uint32_t length = h.length;
  // The claimed length is untrusted. A seekable stream is checked up front
  // and read in one piece; any other stream grows the payload one chunk at
  // a time, so memory tracks the bytes that actually arrive.
  const std::optional<std::uint64_t> left = bytes_left(in);
  if (left && length > *left) return FrameError::kTruncated;
  constexpr std::size_t kChunk = 1 << 20;
  std::string payload;
  while (payload.size() < length) {
    const std::size_t got = payload.size();
    const std::size_t step =
        left ? length - got : std::min<std::size_t>(length - got, kChunk);
    payload.resize(got + step);
    in.read(payload.data() + got, static_cast<std::streamsize>(step));
    if (static_cast<std::size_t>(in.gcount()) < step) {
      return FrameError::kTruncated;
    }
  }
  if (crc32(payload) != h.crc) return FrameError::kBadCrc;
  out->type = h.type;
  out->payload = std::move(payload);
  return FrameError::kOk;
}

std::optional<std::uint64_t> bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();  // a failed end-seek must not poison the stream
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

void FieldWriter::u64(std::uint16_t id, std::uint64_t v) {
  put_u16(out_, id);
  put_u16(out_, static_cast<std::uint16_t>(FieldKind::kU64));
  put_u32(out_, 8);
  put_u64(out_, v);
}

void FieldWriter::bytes(std::uint16_t id, std::string_view v) {
  put_u16(out_, id);
  put_u16(out_, static_cast<std::uint16_t>(FieldKind::kBytes));
  put_u32(out_, static_cast<std::uint32_t>(v.size()));
  out_->append(v);
}

std::uint64_t Field::as_u64() const {
  if (kind != FieldKind::kU64 || bytes.size() != 8) return 0;
  return get_u64(reinterpret_cast<const unsigned char*>(bytes.data()));
}

std::optional<Field> FieldReader::next() {
  while (!rest_.empty()) {
    if (rest_.size() < 8) {
      malformed_ = true;
      return std::nullopt;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(rest_.data());
    Field f;
    f.id = get_u16(p);
    const std::uint16_t kind = get_u16(p + 2);
    const std::uint32_t len = get_u32(p + 4);
    if (rest_.size() < 8 + static_cast<std::size_t>(len)) {
      malformed_ = true;
      return std::nullopt;
    }
    f.bytes = rest_.substr(8, len);
    rest_.remove_prefix(8 + len);
    // Unknown kinds are skipped wholesale (their length still delimits
    // them); unknown ids are the *caller's* business — they are returned
    // so lookups can ignore them, which is what makes payloads extensible.
    if (kind != static_cast<std::uint16_t>(FieldKind::kU64) &&
        kind != static_cast<std::uint16_t>(FieldKind::kBytes)) {
      continue;
    }
    f.kind = static_cast<FieldKind>(kind);
    return f;
  }
  return std::nullopt;
}

std::optional<Field> FieldReader::find(std::string_view payload,
                                       std::uint16_t id) {
  FieldReader r(payload);
  while (auto f = r.next()) {
    if (f->id == id) return f;
  }
  return std::nullopt;
}

}  // namespace pred::wire
