// rbb.ckpt.v1 format tests: encode/decode round trip, the rejection
// table (every malformed header field raises its own named ErrorKind),
// the corrupt-a-byte fuzz (EVERY single-byte mutation of a valid file
// is detected and rejected -- nothing is ever silently restored),
// truncation at every possible length, and a golden CRC of one encoded
// image that pins the byte layout of rbb.ckpt.v1.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "support/serial.hpp"

namespace rbb::ckpt {
namespace {

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.header.family = Family::kTetris;
  c.header.backend = kBackendSharded;
  c.header.bins = 4096;
  c.header.entities = 4096;
  c.header.seed = 99;
  c.header.round = 123456789;
  c.header.options_digest = digest("experiment=trajectory family=tetris");
  c.meta = "experiment=trajectory\nfamily=tetris\nn=4096\n";
  c.payload = std::string("\x01\x02\x03payload-bytes\x00\xff", 18);
  return c;
}

ErrorKind decode_kind(const std::string& bytes) {
  try {
    (void)decode(bytes);
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "decode accepted a malformed image";
  return ErrorKind::kIo;
}

TEST(CkptHeader, EncodeDecodeRoundTrip) {
  const Checkpoint c = sample_checkpoint();
  const Checkpoint got = decode(encode(c));
  EXPECT_EQ(got.header.version, kFormatVersion);
  EXPECT_EQ(got.header.family, c.header.family);
  EXPECT_EQ(got.header.stream, kStreamCounter);
  EXPECT_EQ(got.header.backend, c.header.backend);
  EXPECT_EQ(got.header.bins, c.header.bins);
  EXPECT_EQ(got.header.entities, c.header.entities);
  EXPECT_EQ(got.header.seed, c.header.seed);
  EXPECT_EQ(got.header.round, c.header.round);
  EXPECT_EQ(got.header.options_digest, c.header.options_digest);
  EXPECT_EQ(got.meta, c.meta);
  EXPECT_EQ(got.payload, c.payload);
}

// The file bytes of rbb.ckpt.v1 are a contract with every checkpoint
// already on disk.  These constants were recorded from the byte-wise
// encoder that wrote the first v1 files; any layout or checksum change
// moves them.
TEST(CkptHeader, EncodedBytesMatchGoldenCrc) {
  const std::string bytes = encode(sample_checkpoint());
  EXPECT_EQ(bytes.size(), 141u);
  EXPECT_EQ(serial::crc32(bytes), 0xC031F8C4u);
}

// -- rejection table: each malformed field gets its own ErrorKind ------------

TEST(CkptHeader, RejectsWrongMagic) {
  std::string bytes = encode(sample_checkpoint());
  bytes[0] = 'X';
  EXPECT_EQ(decode_kind(bytes), ErrorKind::kBadMagic);
}

TEST(CkptHeader, RejectsUnknownVersion) {
  // encode() honors the header verbatim, so this file has valid CRCs
  // and fails on the version check alone.
  Checkpoint c = sample_checkpoint();
  c.header.version = 99;
  EXPECT_EQ(decode_kind(encode(c)), ErrorKind::kBadVersion);
}

TEST(CkptHeader, RejectsUnknownFamily) {
  Checkpoint c = sample_checkpoint();
  c.header.family = static_cast<Family>(kFamilyCount + 7);
  EXPECT_EQ(decode_kind(encode(c)), ErrorKind::kBadFamily);
}

TEST(CkptHeader, RejectsUnknownStream) {
  Checkpoint c = sample_checkpoint();
  c.header.stream = 3;  // only the counter stream is checkpointable
  EXPECT_EQ(decode_kind(encode(c)), ErrorKind::kBadStream);
}

TEST(CkptHeader, RejectsEmptyImage) {
  EXPECT_EQ(decode_kind(std::string()), ErrorKind::kTruncated);
}

// -- verify_matches: the restore-time identity checks ------------------------

TEST(CkptHeader, VerifyMatchesAccepts) {
  const Checkpoint c = sample_checkpoint();
  EXPECT_NO_THROW(verify_matches(c.header, Family::kTetris, 4096, 4096, 99,
                                 c.header.options_digest));
}

TEST(CkptHeader, VerifyMatchesRejectsByKind) {
  const Checkpoint c = sample_checkpoint();
  const auto kind_of = [&](Family f, std::uint64_t n, std::uint64_t m,
                           std::uint64_t seed, std::uint32_t dig) {
    try {
      verify_matches(c.header, f, n, m, seed, dig);
    } catch (const Error& e) {
      return e.kind();
    }
    ADD_FAILURE() << "verify_matches accepted a mismatch";
    return ErrorKind::kIo;
  };
  const std::uint32_t dig = c.header.options_digest;
  EXPECT_EQ(kind_of(Family::kLoad, 4096, 4096, 99, dig),
            ErrorKind::kFamilyMismatch);
  EXPECT_EQ(kind_of(Family::kTetris, 512, 4096, 99, dig),
            ErrorKind::kShapeMismatch);
  EXPECT_EQ(kind_of(Family::kTetris, 4096, 512, 99, dig),
            ErrorKind::kShapeMismatch);
  EXPECT_EQ(kind_of(Family::kTetris, 4096, 4096, 7, dig),
            ErrorKind::kShapeMismatch);
  EXPECT_EQ(kind_of(Family::kTetris, 4096, 4096, 99, dig ^ 1),
            ErrorKind::kDigestMismatch);
}

// -- corruption fuzz ---------------------------------------------------------

// Flip every byte of a valid image, one at a time: every mutation must
// be rejected with a named Error.  (The two CRC regions cover the
// whole file, so there is no byte whose corruption can go unnoticed.)
TEST(CkptHeader, EverySingleByteFlipIsRejected) {
  const std::string good = encode(sample_checkpoint());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    EXPECT_THROW((void)decode(bad), Error) << "byte " << i << " of "
                                           << good.size();
  }
}

// Truncate at every length: a shortened image must never decode.
TEST(CkptHeader, EveryTruncationIsRejected) {
  const std::string good = encode(sample_checkpoint());
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)decode(good.substr(0, len)), Error)
        << "truncated to " << len << " of " << good.size();
  }
}

// Appending trailing garbage must also be rejected (the length fields
// account for every byte).
TEST(CkptHeader, TrailingGarbageIsRejected) {
  std::string bad = encode(sample_checkpoint());
  bad += '\0';
  EXPECT_THROW((void)decode(bad), Error);
}

TEST(CkptHeader, ErrorMessagesAreNamed) {
  try {
    (void)decode(std::string("not a checkpoint at all, but long enough to "
                             "get past the fixed-size header check......"));
    FAIL() << "decode accepted garbage";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadMagic);
    EXPECT_NE(std::string(e.what()).find("checkpoint bad-magic"),
              std::string::npos)
        << "what() = " << e.what();
  }
}

}  // namespace
}  // namespace rbb::ckpt
