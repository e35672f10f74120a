// Queue disciplines of the token process (paper, Sect. 4) and the
// canonical one-token-per-bin starting placement.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rbb {

/// Which token a non-empty bin releases each round (paper: "according to
/// some fixed strategy (random, FIFO, etc)").
enum class QueuePolicy {
  kFifo,    // oldest token in the bin (the Sect. 4 traversal strategy)
  kLifo,    // newest token
  kRandom,  // uniform random token from the bin
};

[[nodiscard]] inline const char* to_string(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kFifo: return "fifo";
    case QueuePolicy::kLifo: return "lifo";
    case QueuePolicy::kRandom: return "random";
  }
  return "unknown";
}

[[nodiscard]] inline QueuePolicy queue_policy_from_string(
    const std::string& s) {
  if (s == "fifo") return QueuePolicy::kFifo;
  if (s == "lifo") return QueuePolicy::kLifo;
  if (s == "random") return QueuePolicy::kRandom;
  throw std::invalid_argument("queue_policy_from_string: unknown: " + s);
}

/// One token per bin, token i starting in bin i: the canonical
/// starting placement of the progress / delay / cover experiments and
/// the token perf benches.
[[nodiscard]] inline std::vector<std::uint32_t> identity_placement(
    std::uint32_t n) {
  std::vector<std::uint32_t> placement(n);
  for (std::uint32_t i = 0; i < n; ++i) placement[i] = i;
  return placement;
}

}  // namespace rbb
