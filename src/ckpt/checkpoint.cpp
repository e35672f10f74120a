#include "ckpt/checkpoint.hpp"

#include <cstring>

#include "support/serial.hpp"

namespace rbb::ckpt {

const char* to_string(Family family) noexcept {
  switch (family) {
    case Family::kLoad:
      return "load";
    case Family::kToken:
      return "token";
    case Family::kTetris:
      return "tetris";
    case Family::kDChoices:
      return "dchoices";
    case Family::kThreshold:
      return "threshold";
    case Family::kLeaky:
      return "leaky";
    case Family::kMixed:
      return "mixed";
  }
  return "?";
}

const char* to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kIo:
      return "io-error";
    case ErrorKind::kTruncated:
      return "truncated";
    case ErrorKind::kBadMagic:
      return "bad-magic";
    case ErrorKind::kBadVersion:
      return "bad-version";
    case ErrorKind::kBadFamily:
      return "bad-family";
    case ErrorKind::kBadStream:
      return "bad-stream";
    case ErrorKind::kHeaderCorrupt:
      return "header-corrupt";
    case ErrorKind::kPayloadCorrupt:
      return "payload-corrupt";
    case ErrorKind::kFamilyMismatch:
      return "family-mismatch";
    case ErrorKind::kDigestMismatch:
      return "options-digest-mismatch";
    case ErrorKind::kShapeMismatch:
      return "shape-mismatch";
  }
  return "?";
}

Error::Error(ErrorKind kind, const std::string& detail)
    : std::runtime_error(std::string("checkpoint ") + to_string(kind) + ": " +
                         detail),
      kind_(kind) {}

namespace {

// Fixed-size prefix before the variable-length meta block.
constexpr std::size_t kFixedHeaderBytes =
    sizeof kMagic + 4 /*version*/ + 4 /*family*/ + 4 /*stream*/ +
    4 /*backend*/ + 8 /*bins*/ + 8 /*entities*/ + 8 /*seed*/ + 8 /*round*/ +
    4 /*digest*/ + 4 /*meta_len*/;

}  // namespace

std::uint32_t digest(std::string_view canonical_options) noexcept {
  return serial::crc32(canonical_options);
}

Envelope envelope(const Checkpoint& ckpt) {
  serial::ByteWriter w;
  w.reserve(kFixedHeaderBytes + ckpt.meta.size() + 4 /*header crc*/ +
            8 /*payload length*/);
  w.bytes(kMagic, sizeof kMagic);
  w.u32(ckpt.header.version);
  w.u32(static_cast<std::uint32_t>(ckpt.header.family));
  w.u32(ckpt.header.stream);
  w.u32(ckpt.header.backend);
  w.u64(ckpt.header.bins);
  w.u64(ckpt.header.entities);
  w.u64(ckpt.header.seed);
  w.u64(ckpt.header.round);
  w.u32(ckpt.header.options_digest);
  w.u32(static_cast<std::uint32_t>(ckpt.meta.size()));
  w.bytes(ckpt.meta.data(), ckpt.meta.size());
  w.u32(serial::crc32(w.str()));
  w.u64(ckpt.payload.size());
  Envelope e;
  e.prefix = w.take();
  const std::uint32_t payload_crc = serial::crc32(ckpt.payload);
  std::memcpy(e.trailer.data(), &payload_crc, sizeof payload_crc);
  return e;
}

std::string encode(const Checkpoint& ckpt) {
  const Envelope e = envelope(ckpt);
  std::string bytes;
  bytes.reserve(e.prefix.size() + ckpt.payload.size() + e.trailer.size());
  bytes += e.prefix;
  bytes += ckpt.payload;
  bytes.append(e.trailer.data(), e.trailer.size());
  return bytes;
}

Checkpoint decode(std::string_view bytes) {
  if (bytes.size() < kFixedHeaderBytes) {
    throw Error(ErrorKind::kTruncated,
                "file is " + std::to_string(bytes.size()) +
                    " bytes, smaller than the fixed header (" +
                    std::to_string(kFixedHeaderBytes) + ")");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw Error(ErrorKind::kBadMagic, "not an rbb.ckpt file");
  }

  serial::ByteReader r(bytes);
  char magic[sizeof kMagic];
  r.bytes(magic, sizeof magic);

  Checkpoint ckpt;
  ckpt.header.version = r.u32();
  if (ckpt.header.version != kFormatVersion) {
    throw Error(ErrorKind::kBadVersion,
                "format version " + std::to_string(ckpt.header.version) +
                    ", this build reads version " +
                    std::to_string(kFormatVersion));
  }
  const std::uint32_t family_tag = r.u32();
  if (family_tag >= kFamilyCount) {
    throw Error(ErrorKind::kBadFamily,
                "family tag " + std::to_string(family_tag) + " out of range");
  }
  ckpt.header.family = static_cast<Family>(family_tag);
  ckpt.header.stream = r.u32();
  if (ckpt.header.stream != kStreamCounter) {
    throw Error(ErrorKind::kBadStream,
                "stream tag " + std::to_string(ckpt.header.stream) +
                    " is not a checkpointable counter stream");
  }
  ckpt.header.backend = r.u32();
  ckpt.header.bins = r.u64();
  ckpt.header.entities = r.u64();
  ckpt.header.seed = r.u64();
  ckpt.header.round = r.u64();
  ckpt.header.options_digest = r.u32();

  const std::uint32_t meta_len = r.u32();
  if (meta_len > r.remaining()) {
    throw Error(ErrorKind::kTruncated, "meta block runs past end of file");
  }
  ckpt.meta.resize(meta_len);
  if (meta_len != 0) r.bytes(ckpt.meta.data(), meta_len);

  const std::size_t header_region = kFixedHeaderBytes + meta_len;
  if (r.remaining() < 4) {
    throw Error(ErrorKind::kTruncated, "missing header checksum");
  }
  const std::uint32_t header_crc = r.u32();
  if (header_crc != serial::crc32(bytes.substr(0, header_region))) {
    throw Error(ErrorKind::kHeaderCorrupt, "header/meta CRC32 mismatch");
  }

  if (r.remaining() < 8) {
    throw Error(ErrorKind::kTruncated, "missing payload length");
  }
  const std::uint64_t payload_len = r.u64();
  if (r.remaining() < 4 || payload_len != r.remaining() - 4) {
    throw Error(ErrorKind::kTruncated,
                "payload length " + std::to_string(payload_len) +
                    " disagrees with file size (" +
                    std::to_string(r.remaining()) +
                    " bytes follow the header)");
  }
  ckpt.payload.resize(static_cast<std::size_t>(payload_len));
  if (payload_len != 0) {
    r.bytes(ckpt.payload.data(), static_cast<std::size_t>(payload_len));
  }
  const std::uint32_t payload_crc = r.u32();
  if (payload_crc != serial::crc32(ckpt.payload)) {
    throw Error(ErrorKind::kPayloadCorrupt, "payload CRC32 mismatch");
  }
  return ckpt;
}

void verify_matches(const Header& header, Family family, std::uint64_t bins,
                    std::uint64_t entities, std::uint64_t seed,
                    std::uint32_t options_digest) {
  if (header.family != family) {
    throw Error(ErrorKind::kFamilyMismatch,
                std::string("checkpoint is for family '") +
                    to_string(header.family) + "', restore target is '" +
                    to_string(family) + "'");
  }
  if (header.bins != bins || header.entities != entities ||
      header.seed != seed) {
    throw Error(ErrorKind::kShapeMismatch,
                "checkpoint (n=" + std::to_string(header.bins) +
                    ", m=" + std::to_string(header.entities) +
                    ", seed=" + std::to_string(header.seed) +
                    ") vs restore target (n=" + std::to_string(bins) +
                    ", m=" + std::to_string(entities) +
                    ", seed=" + std::to_string(seed) + ")");
  }
  if (header.options_digest != options_digest) {
    throw Error(ErrorKind::kDigestMismatch,
                "checkpoint options digest " +
                    std::to_string(header.options_digest) +
                    " != restore target digest " +
                    std::to_string(options_digest) +
                    " (different experiment parameters)");
  }
}

}  // namespace rbb::ckpt
