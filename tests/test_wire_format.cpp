// Regression tests for the shared wire framing (trace/wire_format.hpp):
// the CRC against known answers and a byte-at-a-time reference, every
// FrameError path (bad magic, version skew, truncation, CRC corruption,
// oversized claims), the incremental-parse contract FrameStreamParser
// relies on, and the tagged-field layer's unknown-field forward
// compatibility.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>

#include "collect/transport.hpp"
#include "trace/wire_format.hpp"

namespace pred {
namespace {

using wire::Field;
using wire::FieldReader;
using wire::FieldWriter;
using wire::Frame;
using wire::FrameError;
using wire::FrameType;

std::string sample_payload() {
  std::string payload;
  FieldWriter w(&payload);
  w.u64(1, 0xdeadbeefcafe1234ull);
  w.str(2, "hello, wire");
  return payload;
}

/// The textbook bitwise CRC-32 (IEEE 802.3, reflected), one byte at a time.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t size) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(wire::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(wire::crc32(""), 0u);
  EXPECT_EQ(wire::crc32(nullptr, 0), 0u);
}

// Every length from 0 to 67 (eight-byte steps plus every tail length) at
// every start offset 0-7, so both the sliced loop and misaligned reads are
// covered.
TEST(Crc32, MatchesByteAtATimeReferenceAtEveryLengthAndAlignment) {
  std::array<unsigned char, 8 + 67> buf{};
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      EXPECT_EQ(wire::crc32(buf.data() + offset, len),
                reference_crc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(WireFormat, FrameRoundTrip) {
  const std::string payload = sample_payload();
  const std::string bytes = wire::encode_frame(FrameType::kSnapshot, payload);
  ASSERT_EQ(bytes.size(), wire::kFrameHeaderSize + payload.size());

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::parse_frame(bytes, &frame, &consumed), FrameError::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, FrameType::kSnapshot);
  EXPECT_EQ(frame.payload, payload);
}

TEST(WireFormat, EmptyPayloadFrame) {
  const std::string bytes = wire::encode_frame(FrameType::kGoodbye, "");
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::parse_frame(bytes, &frame, &consumed), FrameError::kOk);
  EXPECT_EQ(frame.type, FrameType::kGoodbye);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(WireFormat, RejectsBadMagic) {
  std::string bytes = wire::encode_frame(FrameType::kHello, "x");
  bytes[0] ^= 0x5a;
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::parse_frame(bytes, &frame, &consumed),
            FrameError::kBadMagic);
}

TEST(WireFormat, RejectsVersionSkew) {
  std::string bytes = wire::encode_frame(FrameType::kHello, "x");
  bytes[4] = static_cast<char>(wire::kWireVersion + 1);  // version lo byte
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::parse_frame(bytes, &frame, &consumed),
            FrameError::kVersionSkew);
}

TEST(WireFormat, TruncationAtEveryPrefixLength) {
  const std::string bytes =
      wire::encode_frame(FrameType::kSnapshot, sample_payload());
  // Any strict prefix must report kTruncated — never a false kOk, never a
  // spurious corruption error.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(wire::parse_frame(std::string_view(bytes).substr(0, cut),
                                &frame, &consumed),
              FrameError::kTruncated)
        << "prefix length " << cut;
  }
}

TEST(WireFormat, RejectsPayloadCorruptionAnywhere) {
  const std::string clean =
      wire::encode_frame(FrameType::kSnapshot, sample_payload());
  // Flip one bit in each payload byte: the CRC must catch every one.
  for (std::size_t i = wire::kFrameHeaderSize; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] ^= 0x01;
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(wire::parse_frame(bytes, &frame, &consumed),
              FrameError::kBadCrc)
        << "corrupt byte " << i;
  }
}

TEST(WireFormat, ReadFrameFromStream) {
  const std::string a = wire::encode_frame(FrameType::kHello, "a");
  const std::string b = wire::encode_frame(FrameType::kGoodbye, "bb");
  std::stringstream in(a + b);

  Frame frame;
  ASSERT_EQ(wire::read_frame(in, &frame), FrameError::kOk);
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.payload, "a");
  ASSERT_EQ(wire::read_frame(in, &frame), FrameError::kOk);
  EXPECT_EQ(frame.type, FrameType::kGoodbye);
  EXPECT_EQ(frame.payload, "bb");
  EXPECT_EQ(wire::read_frame(in, &frame), FrameError::kTruncated);
}

/// A header claiming a 4 GiB payload with no payload behind it.
std::string forged_header() {
  std::string bytes = wire::encode_frame(FrameType::kHello, "");
  for (int i = 8; i < 12; ++i) bytes[i] = static_cast<char>(0xff);
  return bytes;
}

// The claimed length is checked against what the stream holds before the
// payload is allocated: 16 bytes cannot cost 4 GiB.
TEST(WireFormat, ReadFrameRejectsPayloadLongerThanStream) {
  std::stringstream in(forged_header());
  Frame frame;
  EXPECT_EQ(wire::read_frame(in, &frame), FrameError::kTruncated);
}

/// A stream buffer that cannot seek, like a pipe.
class PipeBuf : public std::stringbuf {
 public:
  using std::stringbuf::stringbuf;

 protected:
  pos_type seekoff(off_type, std::ios::seekdir, std::ios::openmode) override {
    return pos_type(off_type(-1));
  }
  pos_type seekpos(pos_type, std::ios::openmode) override {
    return pos_type(off_type(-1));
  }
};

// Without seeking, the payload grows only as bytes arrive, so the forged
// claim still fails as truncation and honest frames still read.
TEST(WireFormat, ReadFrameFromUnseekableStream) {
  PipeBuf forged(forged_header());
  std::istream forged_in(&forged);
  Frame frame;
  EXPECT_FALSE(wire::bytes_left(forged_in).has_value());
  EXPECT_EQ(wire::read_frame(forged_in, &frame), FrameError::kTruncated);

  PipeBuf honest(wire::encode_frame(FrameType::kHello, "abc"));
  std::istream honest_in(&honest);
  ASSERT_EQ(wire::read_frame(honest_in, &frame), FrameError::kOk);
  EXPECT_EQ(frame.payload, "abc");
}

TEST(WireFormat, FieldRoundTripAndLookup) {
  const std::string payload = sample_payload();
  const auto u = FieldReader::find(payload, 1);
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->as_u64(), 0xdeadbeefcafe1234ull);
  const auto s = FieldReader::find(payload, 2);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->bytes, "hello, wire");
  EXPECT_FALSE(FieldReader::find(payload, 99).has_value());
}

TEST(WireFormat, UnknownFieldsAreSkipped) {
  // A newer producer writes fields this reader has never heard of, of both
  // kinds, interleaved with known ones.
  std::string payload;
  FieldWriter w(&payload);
  w.u64(500, 7);
  w.u64(1, 42);
  w.str(501, std::string(1000, 'z'));
  w.str(2, "known");

  FieldReader r(payload);
  std::size_t fields = 0;
  while (auto f = r.next()) ++fields;
  EXPECT_EQ(fields, 4u);
  EXPECT_FALSE(r.malformed());
  EXPECT_EQ(FieldReader::find(payload, 1)->as_u64(), 42u);
  EXPECT_EQ(FieldReader::find(payload, 2)->bytes, "known");
}

TEST(WireFormat, MalformedFieldSequenceDetected) {
  std::string payload = sample_payload();
  payload.resize(payload.size() - 3);  // tear the last field's value
  FieldReader r(payload);
  while (r.next()) {
  }
  EXPECT_TRUE(r.malformed());
}

TEST(FrameStreamParser, ReassemblesAcrossArbitraryChunking) {
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    stream += wire::encode_frame(FrameType::kSnapshot,
                                 std::string(17 * (i + 1), 'a' + i));
  }
  // Feed in every chunk size from 1 byte to the whole stream.
  for (std::size_t chunk = 1; chunk <= stream.size(); chunk += 7) {
    FrameStreamParser parser;
    std::size_t frames = 0;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      parser.feed(std::string_view(stream).substr(
          off, std::min(chunk, stream.size() - off)));
      Frame frame;
      while (parser.next(&frame)) {
        EXPECT_EQ(frame.payload[0], 'a' + static_cast<char>(frames));
        ++frames;
      }
    }
    EXPECT_EQ(frames, 5u) << "chunk size " << chunk;
    EXPECT_FALSE(parser.poisoned());
    EXPECT_EQ(parser.pending_bytes(), 0u);
  }
}

TEST(FrameStreamParser, CorruptionPoisonsTheStream) {
  std::string stream = wire::encode_frame(FrameType::kHello, "first");
  stream += wire::encode_frame(FrameType::kSnapshot, "second");
  stream[wire::kFrameHeaderSize] ^= 0x40;  // corrupt the first payload

  FrameStreamParser parser;
  parser.feed(stream);
  Frame frame;
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_TRUE(parser.poisoned());
  EXPECT_EQ(parser.error(), FrameError::kBadCrc);
  // The good second frame is unreachable — framing trust is gone.
  parser.feed(wire::encode_frame(FrameType::kGoodbye, ""));
  EXPECT_FALSE(parser.next(&frame));
}

// A header claiming 4 GiB is refused as soon as its 16 bytes arrive: none
// of the claimed payload is ever buffered, and later bytes are discarded.
TEST(FrameStreamParser, OversizedClaimPoisonsBeforeBufferingPayload) {
  const std::string header = forged_header();
  ASSERT_EQ(header.size(), wire::kFrameHeaderSize);
  FrameStreamParser parser;
  parser.feed(std::string_view(header).substr(0, 10));
  EXPECT_FALSE(parser.poisoned());
  parser.feed(header.substr(10) + std::string(4096, 'x'));
  EXPECT_TRUE(parser.poisoned());
  EXPECT_EQ(parser.error(), FrameError::kTooLarge);
  EXPECT_STREQ(wire::to_string(parser.error()), "too-large");
  EXPECT_LE(parser.pending_bytes(), wire::kFrameHeaderSize);
  for (int i = 0; i < 64; ++i) parser.feed(std::string(1 << 16, 'y'));
  EXPECT_LE(parser.pending_bytes(), wire::kFrameHeaderSize);
  Frame frame;
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_EQ(parser.error(), FrameError::kTooLarge);
}

// The cap is inclusive and applies to each header in a chunk, not only the
// first: a good frame followed by an oversized header in one feed poisons.
TEST(FrameStreamParser, CapAppliesToEveryHeaderInAChunk) {
  std::string at_cap = wire::encode_frame(FrameType::kHello, "");
  const std::uint32_t cap = FrameStreamParser::kMaxFrameLength;
  for (int i = 0; i < 4; ++i) {
    at_cap[8 + i] = static_cast<char>((cap >> (8 * i)) & 0xff);
  }
  FrameStreamParser ok;
  ok.feed(at_cap);
  EXPECT_FALSE(ok.poisoned());  // waits for its payload

  FrameStreamParser parser;
  parser.feed(wire::encode_frame(FrameType::kHello, "fine") +
              forged_header() + std::string(100, 'z'));
  EXPECT_TRUE(parser.poisoned());
  EXPECT_EQ(parser.error(), FrameError::kTooLarge);
}

TEST(FrameStreamParser, MidFrameEofLeavesPendingBytes) {
  const std::string bytes = wire::encode_frame(FrameType::kSnapshot, "abc");
  FrameStreamParser parser;
  parser.feed(std::string_view(bytes).substr(0, bytes.size() - 1));
  Frame frame;
  EXPECT_FALSE(parser.next(&frame));
  EXPECT_FALSE(parser.poisoned());
  EXPECT_GT(parser.pending_bytes(), 0u);
}

}  // namespace
}  // namespace pred
