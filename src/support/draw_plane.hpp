// Batched counter-RNG draw planes (DESIGN.md Sect. 5).
//
// CounterRng::index is a *scalar* draw: one Philox4x32-10 block per
// call, 10 serially dependent rounds of two 64-bit multiplies each, so
// the per-draw cost is dominated by multiply latency the out-of-order
// core cannot hide.  Salmon et al. designed Philox for exactly the
// opposite usage -- wide batches of independent blocks -- and every hot
// consumer in this repository (relaunch destinations, d-choices
// candidates, fresh refill arrivals, token moves) asks for a whole
// *plane* of draws per round: the destinations of a contiguous or
// gathered slot range at a fixed (seed, round).
//
// DrawPlane materializes such a plane in one pass:
//
//   * the per-round key schedule is hoisted once per plane (the scalar
//     path re-derives it per block),
//   * blocks are generated by a plain per-slot loop in portable scalar
//     code (consecutive blocks are independent, so the out-of-order
//     core overlaps their multiply chains), or 8 lanes at a time with
//     AVX2 -- two 4-lane mul_epu32 halves interleaved per Philox round
//     -- selected by runtime dispatch,
//   * the Lemire bounded reduction is batched: the rejection threshold
//     is hoisted per plane, every lane commits its multiply-shift
//     result branch-free, and the (astronomically rare, < 2^-32 per
//     draw) rejections land on a deferred retry list fixed up from the
//     stored second words afterwards.
//
// Bit-identity contract: for every slot, the plane output equals
// lemire_bounded(words(round, slot), n) of the scalar CounterRng --
// same (seed, round, slot) -> block mapping, only the evaluation order
// changes.  tests/support/draw_plane_test.cpp pins this across
// unaligned ranges, tail lanes, gathered slot lists, and both dispatch
// branches; every sharded parity suite inherits the pin end to end.
//
// Dispatch control: RBB_DRAW_PLANE_SIMD=0 in the environment forces the
// portable path (CI runs the parity suites both ways);
// force_plane_isa() does the same programmatically for tests/benches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/counter_rng.hpp"

namespace rbb {

/// The instruction sets a plane can draw with.
enum class PlaneIsa {
  kPortable,  // scalar per-slot loop; every target
  kAvx2,      // 8-lane AVX2 batching; x86-64 with AVX2 only
};

/// The ISA the next plane fill will use: force_plane_isa() override if
/// set, else auto-detection (CPU support, RBB_DRAW_PLANE_SIMD=0 forces
/// portable).
[[nodiscard]] PlaneIsa active_plane_isa() noexcept;

/// True when this machine can execute `isa`.
[[nodiscard]] bool plane_isa_supported(PlaneIsa isa) noexcept;

/// Testing/bench hook: pin the dispatch to `isa`.  The caller must
/// check plane_isa_supported first; forcing an unsupported ISA would
/// fault on the first fill.
void force_plane_isa(PlaneIsa isa) noexcept;

/// Reverts force_plane_isa: back to auto-detection.
void reset_plane_isa() noexcept;

/// Batched Lemire bounded reduction: out[i] = the same value
/// lemire_bounded(w0[i], w1[i], n) yields, with the threshold hoisted
/// and rejections deferred to a fix-up pass so the main loop is
/// branch-free.  Exposed for tests (crafted words force the retry path,
/// which no feasible number of real draws reaches) and for the
/// perf_kernels batch-vs-per-call microbench.
void lemire_bounded_batch(const std::uint64_t* w0, const std::uint64_t* w1,
                          std::size_t count, std::uint32_t n,
                          std::uint32_t* out) noexcept;

/// One round's batched draws under one hoisted key schedule.
///
/// Copying is free (80 bytes of derived round keys, no other state);
/// CounterStream owns one per stream and re-uses it every round -- the
/// (round, slot) coordinates are per-call, exactly as in CounterRng.
class DrawPlane {
 public:
  constexpr explicit DrawPlane(const CounterRng& rng) noexcept
      : schedule_(philox_key_schedule(rng.key())) {}

  /// Destinations of the contiguous slot range
  /// [slot_begin, slot_begin + count) of `round`:
  /// out[i] = CounterRng::index(round, slot_begin + i, n), bit for bit.
  void fill_range(std::uint64_t round, std::uint64_t slot_begin,
                  std::size_t count, std::uint32_t n,
                  std::uint32_t* out) const noexcept;

  /// Destinations of a gathered slot list with a shared upper half:
  /// out[i] = CounterRng::index(round, (slot_hi << 32) | slot_lo[i], n).
  /// Covers every gathered consumer: relaunch slots (hi = 0, lo = the
  /// releasing bins) and d-choices candidate j (hi = j).
  void fill_gather(std::uint64_t round, const std::uint32_t* slot_lo,
                   std::uint32_t slot_hi, std::size_t count, std::uint32_t n,
                   std::uint32_t* out) const noexcept;

  /// The hoisted per-round keys (testing only).
  [[nodiscard]] constexpr const PhiloxKeySchedule& schedule() const noexcept {
    return schedule_;
  }

 private:
  PhiloxKeySchedule schedule_;
};

}  // namespace rbb
