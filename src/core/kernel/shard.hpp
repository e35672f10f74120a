// Bin partitioning for the sharded execution policy (DESIGN.md Sect. 5).
//
// A ShardPlan cuts the bin range [0, n) into cache-aligned shards --
// contiguous, equally sized blocks whose load sub-vector fits in L1/L2
// -- and groups the shards into a fixed number of contiguous *stripes*,
// the unit of work handed to pool tasks.  Two properties matter:
//
//  * shard boundaries are multiples of 16 bins (16 x 4-byte loads = one
//    64-byte cache line), so two workers never write the same line when
//    each owns whole shards;
//  * the stripe count is fixed by the plan, NOT by the thread count.
//    The round driver (pipeline.hpp) assigns stripes statically to the
//    workers of its team -- stripe g runs on worker g % width -- so any
//    number of threads works through the same stripe list, and because
//    every per-stripe output is either commutative (load sums) or
//    canonically ordered (arrivals sorted by releasing bin), the result
//    is bit-identical for every thread count and shard size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "support/types.hpp"

namespace rbb::kernel {

/// Default bins per shard: 16384 x 4 bytes = 64 KiB, comfortably inside
/// a per-core L2 while amortizing per-shard buffer bookkeeping.
inline constexpr std::uint32_t kDefaultShardSize = 16384;

/// Upper bound on stripes (the units a team worker runs per phase).
/// Small enough that per-stripe accumulators and the stripe x shard
/// scatter grid stay cheap, large enough that the static g % width
/// assignment balances any realistic worker count.
inline constexpr std::uint32_t kMaxStripes = 32;

/// The partition of [0, n) into shards and stripes.
class ShardPlan {
 public:
  /// `shard_size` = 0 picks the default; other values are rounded up to
  /// a multiple of 16 bins (cache-line alignment; see header comment).
  explicit ShardPlan(std::uint32_t n, std::uint32_t shard_size = 0) : n_(n) {
    if (n == 0) throw std::invalid_argument("ShardPlan: n == 0");
    // Round up in 64-bit and clamp to the largest 16-aligned uint32:
    // near UINT32_MAX the 32-bit round-up would wrap to 0 and the
    // shard-count division would SIGFPE (CLI-reachable via
    // --shard-size).  Any shard size >= n means one shard anyway.
    const std::uint64_t requested =
        shard_size == 0 ? kDefaultShardSize : shard_size;
    shard_size_ = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(((requested + 15u) / 16u) * 16u,
                                0xFFFFFFF0u));
    shard_count_ = (n_ - 1) / shard_size_ + 1;
    stripe_count_ = std::min(shard_count_, kMaxStripes);
  }

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t shard_size() const noexcept {
    return shard_size_;
  }
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return shard_count_;
  }
  [[nodiscard]] std::uint32_t stripe_count() const noexcept {
    return stripe_count_;
  }

  [[nodiscard]] std::uint32_t shard_of(bin_index_t bin) const noexcept {
    return bin / shard_size_;
  }
  // Boundary arithmetic widens to 64 bits: near n = 2^32 the products
  // shard * shard_size and (shard + 1) * shard_size exceed uint32 and
  // would silently wrap (--scale=mega headroom; see support/types.hpp).
  [[nodiscard]] bin_index_t shard_begin(std::uint32_t shard) const noexcept {
    return static_cast<bin_index_t>(
        std::min<std::uint64_t>(n_, std::uint64_t{shard} * shard_size_));
  }
  [[nodiscard]] bin_index_t shard_end(std::uint32_t shard) const noexcept {
    return static_cast<bin_index_t>(std::min<std::uint64_t>(
        n_, (std::uint64_t{shard} + 1) * shard_size_));
  }

  /// Stripe `g` owns shards [stripe_begin_shard(g), stripe_end_shard(g)),
  /// in increasing order; stripes tile [0, shard_count) contiguously.
  [[nodiscard]] std::uint32_t stripe_begin_shard(
      std::uint32_t stripe) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(stripe) * shard_count_) / stripe_count_);
  }
  [[nodiscard]] std::uint32_t stripe_end_shard(
      std::uint32_t stripe) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(stripe + 1) * shard_count_) /
        stripe_count_);
  }

  /// Bin range owned by stripe `g`: [stripe_begin_bin, stripe_end_bin).
  [[nodiscard]] bin_index_t stripe_begin_bin(std::uint32_t g) const noexcept {
    return shard_begin(stripe_begin_shard(g));
  }
  [[nodiscard]] bin_index_t stripe_end_bin(std::uint32_t g) const noexcept {
    return stripe_end_shard(g) == shard_count_
               ? n_
               : shard_begin(stripe_end_shard(g));
  }

 private:
  std::uint32_t n_;
  std::uint32_t shard_size_;
  std::uint32_t shard_count_;
  std::uint32_t stripe_count_;
};

}  // namespace rbb::kernel
