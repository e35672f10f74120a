// Byte-level serialization primitives for the durability layer
// (DESIGN.md Sect. 7): a little-endian byte writer/reader pair and the
// CRC32 (IEEE, reflected 0xEDB88320) used to guard every checkpoint
// region.
//
// Lives in support/ (the bottom layer) so the kernel cores can
// serialize themselves without depending on src/ckpt/: a core's
// snapshot()/restore() speaks ByteWriter/ByteReader, and the checkpoint
// format (src/ckpt/checkpoint.hpp) wraps those bytes in the versioned,
// checksummed rbb.ckpt.v1 envelope.
//
// Integers are written via memcpy in native order; the repository
// targets little-endian platforms only (the same assumption the raw
// struct dumps of FlatTokenStore make), so the on-disk format is
// little-endian by construction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rbb::serial {

namespace detail {

/// Slicing-by-16 tables: kCrcTables[0] is the classic byte table of the
/// reflected polynomial; kCrcTables[k][i] is the CRC register after
/// byte i is followed by k zero bytes, so one 16-byte block folds into
/// the register with 16 independent lookups instead of a serial chain.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr CrcTables kCrcTables = make_crc_tables();

[[nodiscard]] inline std::uint32_t load_u32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace detail

/// CRC32 of `size` bytes.  Chainable: pass a previous result as `crc`
/// to extend the checksum over a further region.  Portable
/// slicing-by-16 over whole 16-byte blocks (little-endian loads), one
/// table lookup per byte for the tail.
[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t size,
                                         std::uint32_t crc = 0) noexcept {
  const auto& t = detail::kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; size >= 16; p += 16, size -= 16) {
    const std::uint32_t a = detail::load_u32(p) ^ crc;
    const std::uint32_t b = detail::load_u32(p + 4);
    const std::uint32_t c = detail::load_u32(p + 8);
    const std::uint32_t d = detail::load_u32(p + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
          t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^ t[11][b & 0xFFu] ^
          t[10][(b >> 8) & 0xFFu] ^ t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
          t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^
          t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^ t[3][d & 0xFFu] ^
          t[2][(d >> 8) & 0xFFu] ^ t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
  }
  for (; size != 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes,
                                         std::uint32_t crc = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), crc);
}

/// Bytes ByteWriter::vec(v) appends: the u64 count plus the elements.
/// The cores' snapshot_size() sums these so snapshot() can reserve its
/// exact size up front.
template <typename T>
[[nodiscard]] std::size_t vec_bytes(const std::vector<T>& v) noexcept {
  return sizeof(std::uint64_t) + v.size() * sizeof(T);
}

/// Append-only byte sink.  Fixed-width integers, doubles, raw byte
/// runs, and length-prefixed vectors of trivially copyable elements.
class ByteWriter {
 public:
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void bytes(const void* data, std::size_t size) { append(data, size); }

  /// u64 element count followed by the raw element bytes.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "vec() serializes raw element bytes");
    u64(v.size());
    if (!v.empty()) append(v.data(), v.size() * sizeof(T));
  }

  /// Capacity hint: a writer reserved to its final size appends
  /// without ever reallocating (and so never copies what it holds).
  void reserve(std::size_t total) { bytes_.reserve(total); }

  [[nodiscard]] const std::string& str() const noexcept { return bytes_; }
  [[nodiscard]] std::string take() { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  void append(const void* data, std::size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }

  std::string bytes_;
};

/// Cursor over an immutable byte span; every read throws
/// std::runtime_error on underflow (a checkpoint payload is
/// CRC-verified before it reaches a reader, so underflow here means the
/// payload belongs to a differently-shaped process).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] std::uint32_t u32() { return scalar<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return scalar<std::uint64_t>(); }
  [[nodiscard]] double f64() { return scalar<double>(); }

  void bytes(void* out, std::size_t size) {
    std::memcpy(out, take(size), size);
  }

  /// Counterpart of ByteWriter::vec.  `max_count` bounds the element
  /// count before any allocation happens, so a corrupt length cannot
  /// trigger a huge resize.
  template <typename T>
  void vec(std::vector<T>& out,
           std::uint64_t max_count = std::uint64_t{1} << 40) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = u64();
    if (count > max_count || count > remaining() / sizeof(T)) {
      throw std::runtime_error("serial: vector length exceeds payload");
    }
    out.resize(static_cast<std::size_t>(count));
    if (count != 0) {
      std::memcpy(out.data(), take(static_cast<std::size_t>(count) * sizeof(T)),
                  static_cast<std::size_t>(count) * sizeof(T));
    }
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] T scalar() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }

  [[nodiscard]] const char* take(std::size_t size) {
    if (size > remaining()) {
      throw std::runtime_error("serial: read past end of payload");
    }
    const char* p = data_.data() + offset_;
    offset_ += size;
    return p;
  }

  std::string_view data_;
  std::size_t offset_ = 0;
};

}  // namespace rbb::serial
