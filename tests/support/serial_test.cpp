// CRC32 (support/serial.hpp): the IEEE known answer, equality with a
// byte-at-a-time reference at every length and alignment the
// slicing-by-16 blocks and tail can meet, and chaining across splits.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/serial.hpp"

namespace rbb::serial {
namespace {

// The textbook reflected CRC32, one bit at a time: independent of the
// library's tables.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t size,
                              std::uint32_t crc) {
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(size);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view()), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 300;
  constexpr std::size_t kMaxOffset = 15;
  constexpr std::uint32_t kInit = 0x9E3779B9u;
  const auto buf = random_bytes(kMaxLen + kMaxOffset, 5);
  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len, kInit), reference_crc32(p, len, kInit))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ChainsAcrossEverySplit) {
  const auto buf = random_bytes(64, 6);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace rbb::serial
