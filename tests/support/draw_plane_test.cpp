// KAT suite for the batched/SIMD draw planes: every plane output must
// be bit-identical to the scalar philox4x32 reference path
// (CounterRng::index), for every dispatch branch the machine can
// execute -- unaligned range begins, tail lanes, gathered slot lists,
// 2^32 lo-word carries, and the Lemire retry path (crafted words, plus
// one real rejecting draw found by an offline scan: a draw rejects with
// probability < 2^-32).
#include "support/draw_plane.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "support/counter_rng.hpp"
#include "support/rng.hpp"

namespace rbb {
namespace {

/// SCOPED_TRACE label of a dispatch branch.
const char* isa_name(PlaneIsa isa) {
  switch (isa) {
    case PlaneIsa::kPortable: return "isa=portable";
    case PlaneIsa::kAvx2: return "isa=avx2";
    case PlaneIsa::kAvx512: return "isa=avx512";
  }
  return "isa=?";
}

/// Runs `fn` once per ISA this machine supports, with the dispatch
/// pinned to that ISA; always restores auto-detection.  SCOPED_TRACE
/// labels failures with the branch that produced them.
template <typename Fn>
void for_each_isa(Fn&& fn) {
  for (const PlaneIsa isa :
       {PlaneIsa::kPortable, PlaneIsa::kAvx2, PlaneIsa::kAvx512}) {
    if (!plane_isa_supported(isa)) continue;
    SCOPED_TRACE(isa_name(isa));
    force_plane_isa(isa);
    fn();
    reset_plane_isa();
  }
}

TEST(DrawPlane, ScheduleHoistsThePerRoundKeys) {
  const CounterRng rng(42);
  const DrawPlane plane(rng);
  std::array<std::uint32_t, 2> key = rng.key();
  for (int r = 0; r < kPhiloxRounds; ++r) {
    EXPECT_EQ(plane.schedule()[static_cast<std::size_t>(r)], key)
        << "round " << r;
    key[0] += kPhiloxWeyl0;
    key[1] += kPhiloxWeyl1;
  }
}

TEST(DrawPlane, RangeMatchesScalarAcrossUnalignedBeginsAndTails) {
  const CounterRng rng(7);
  const DrawPlane plane(rng);
  const std::uint32_t n = 1000003;
  for_each_isa([&] {
    // Begins not multiples of the 4/8 lane widths; counts covering
    // sub-lane tails, exact widths, and multi-batch fills.
    for (const std::uint64_t begin : {0ull, 1ull, 3ull, 5ull, 7ull, 9ull,
                                      63ull, 64ull, 65ull, 1000000ull}) {
      for (const std::size_t count :
           {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u,
            100u, 257u}) {
        std::vector<std::uint32_t> out(count, 0);
        plane.fill_range(11, begin, count, n, out.data());
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], rng.index(11, begin + i, n))
              << "begin=" << begin << " count=" << count << " i=" << i;
        }
      }
    }
  });
}

TEST(DrawPlane, RangeMatchesScalarAcrossRounds) {
  const CounterRng rng(2024);
  const DrawPlane plane(rng);
  const std::uint32_t n = 4096;
  for_each_isa([&] {
    for (const std::uint64_t round :
         {0ull, 1ull, 77ull, (1ull << 32) + 5ull}) {
      std::vector<std::uint32_t> out(40, 0);
      plane.fill_range(round, 3, out.size(), n, out.data());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], rng.index(round, 3 + i, n)) << "round=" << round;
      }
    }
  });
}

TEST(DrawPlane, RangeCarriesAcrossThe32BitSlotBoundary) {
  // The range path segments at lo-word wrap points; a span straddling
  // one must still match the scalar 64-bit slot arithmetic.  The
  // fresh-arrival base 2^48 exercises a nonzero upper half too.
  const CounterRng rng(13);
  const DrawPlane plane(rng);
  const std::uint32_t n = 999983;
  for_each_isa([&] {
    for (const std::uint64_t begin :
         {(1ull << 32) - 5, (1ull << 48) - 3, (1ull << 48) + 0xFFFFFFF9ull}) {
      std::vector<std::uint32_t> out(16, 0);
      plane.fill_range(4, begin, out.size(), n, out.data());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], rng.index(4, begin + i, n))
            << "begin=" << begin << " i=" << i;
      }
    }
  });
}

TEST(DrawPlane, GatherMatchesScalarOnArbitrarySlotLists) {
  const CounterRng rng(99);
  const DrawPlane plane(rng);
  const std::uint32_t n = 250000;
  // A scattered, duplicate-bearing slot list like a sparse set of
  // releasing bins.
  Rng shuffle_rng(5);
  std::vector<std::uint32_t> slots;
  for (std::uint32_t i = 0; i < 203; ++i) {
    slots.push_back(shuffle_rng.index(1u << 20));
  }
  slots[10] = slots[11];  // duplicates must not perturb neighbors
  for_each_isa([&] {
    // slot_hi = 0 is the relaunch space; nonzero is the d-choices
    // candidate space (slot = (j << 32) | u).
    for (const std::uint32_t hi : {0u, 1u, 5u}) {
      std::vector<std::uint32_t> out(slots.size(), 0);
      plane.fill_gather(21, slots.data(), hi, slots.size(), n, out.data());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::uint64_t slot =
            (static_cast<std::uint64_t>(hi) << 32) | slots[i];
        ASSERT_EQ(out[i], rng.index(21, slot, n)) << "hi=" << hi;
      }
    }
  });
}

TEST(DrawPlane, NearMaxBoundMatchesScalar) {
  // n near 2^32 maximizes the Lemire rejection threshold ((2^32-k)
  // gives threshold k^2); the multiply-shift result uses the full
  // upper-word range, so any batching slip in the 128-bit product
  // arithmetic would surface here.
  const CounterRng rng(3);
  const DrawPlane plane(rng);
  const std::uint32_t n = 0xFFFF0001u;  // threshold = 65535^2 = 0xFFFE0001
  for_each_isa([&] {
    std::vector<std::uint32_t> out(3000, 0);
    plane.fill_range(8, 17, out.size(), n, out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], rng.index(8, 17 + i, n)) << "i=" << i;
    }
  });
}

TEST(DrawPlane, BatchedLemireMatchesScalarOnCraftedWords) {
  // Crafted words drive the rejection path on demand (RealRejectingDraw
  // below pins one real draw that takes it).  w0 = 0 always lands in
  // the rejection zone (m = 0 < threshold) whenever threshold > 0,
  // forcing the fix-up to take w1.
  const std::vector<std::uint64_t> base0 = {
      0,                      // forced retry
      1,                      // rejection zone for most n
      0xFFFFFFFFFFFFFFFFull,  // top of the range, never rejected
      0x0123456789ABCDEFull, 0xFEDCBA9876543210ull,
      0,                      // a second retry in the same batch
      42, 1ull << 63};
  const std::vector<std::uint64_t> base1 = {
      0xDEADBEEFDEADBEEFull, 7, 9, 11, 13, 0xCAFEBABECAFEBABEull, 17, 19};
  // 37 words: the 8-word pattern four times plus a 5-word tail, so
  // retries land in even and odd lanes, in both halves of a 16-lane
  // set, and in a masked tail.
  std::vector<std::uint64_t> w0, w1;
  for (std::size_t i = 0; i < 37; ++i) {
    w0.push_back(base0[i % base0.size()]);
    w1.push_back(base1[i % base1.size()] + i);
  }
  for_each_isa([&] {
    for (const std::uint32_t n :
         {3u, 10u, 1024u, 1000003u, 0xFFFF0001u, 0x80000000u}) {
      for (const std::size_t count : {std::size_t{8}, w0.size()}) {
        std::vector<std::uint32_t> out(count, 0);
        lemire_bounded_batch(w0.data(), w1.data(), count, n, out.data());
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(out[i], lemire_bounded(w0[i], w1[i], n))
              << "n=" << n << " count=" << count << " i=" << i;
          EXPECT_LT(out[i], n);
        }
      }
    }
    // Prove the retry actually resolved from w1, not w0: for n = 3 the
    // threshold is (2^64 - 3) mod 3 = 1, so w0 = 0 rejects and the
    // result must be the w1 multiply-shift.
    std::uint32_t single = 99;
    const std::uint64_t zero = 0, second = 0xDEADBEEFDEADBEEFull;
    lemire_bounded_batch(&zero, &second, 1, 3, &single);
    EXPECT_EQ(single,
              static_cast<std::uint32_t>(
                  (static_cast<__uint128_t>(second) * 3) >> 64));
  });
}

TEST(DrawPlane, RealRejectingDrawMatchesScalar) {
  // (seed 2026, round 4, slot 812103270, n = 0xFFFF0001) is a real draw
  // whose first word lands in the rejection zone, found by an offline
  // scan over slots (a draw rejects with probability about 2^-32 at
  // this n).  Placed at gather position 21 (an odd lane of the
  // second 16-lane set) and inside a range fill, it must take the
  // second-word fix-up on every ISA.
  const CounterRng rng(2026);
  const DrawPlane plane(rng);
  constexpr std::uint64_t kRound = 4;
  constexpr std::uint32_t kSlot = 812103270;
  constexpr std::uint32_t kN = 0xFFFF0001u;
  const std::array<std::uint64_t, 2> w = rng.words(kRound, kSlot);
  const std::uint64_t threshold = (0 - std::uint64_t{kN}) % kN;
  ASSERT_LT(static_cast<std::uint64_t>(static_cast<__uint128_t>(w[0]) * kN),
            threshold);
  ASSERT_NE(rng.index(kRound, kSlot, kN),
            static_cast<std::uint32_t>(
                (static_cast<__uint128_t>(w[0]) * kN) >> 64));
  std::vector<std::uint32_t> slots;
  for (std::uint32_t i = 0; i < 37; ++i) slots.push_back(kSlot - 21 + 3 * i);
  slots[21] = kSlot;
  for_each_isa([&] {
    std::vector<std::uint32_t> out(slots.size(), 0);
    plane.fill_gather(kRound, slots.data(), 0, slots.size(), kN, out.data());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      ASSERT_EQ(out[i], rng.index(kRound, slots[i], kN)) << "i=" << i;
    }
    std::vector<std::uint32_t> range(40, 0);
    plane.fill_range(kRound, kSlot - 13, range.size(), kN, range.data());
    for (std::size_t i = 0; i < range.size(); ++i) {
      ASSERT_EQ(range[i], rng.index(kRound, kSlot - 13 + i, kN)) << "i=" << i;
    }
  });
}

TEST(DrawPlane, PowerOfTwoBoundNeverRetries) {
  // threshold = 0 for n = 2^k: the rejection zone is empty and the w0
  // multiply-shift must always commit.
  for_each_isa([] {
    const std::uint64_t w0 = 0, w1 = 0xFFFFFFFFFFFFFFFFull;
    std::uint32_t out = 99;
    lemire_bounded_batch(&w0, &w1, 1, 1u << 16, &out);
    EXPECT_EQ(out, 0u);  // w0 = 0 -> index 0, NOT the w1 value
  });
}

TEST(DrawPlane, ForceAndResetControlDispatch) {
  ASSERT_TRUE(plane_isa_supported(PlaneIsa::kPortable));
  force_plane_isa(PlaneIsa::kPortable);
  EXPECT_EQ(active_plane_isa(), PlaneIsa::kPortable);
  for (const PlaneIsa isa : {PlaneIsa::kAvx2, PlaneIsa::kAvx512}) {
    if (!plane_isa_supported(isa)) continue;
    force_plane_isa(isa);
    EXPECT_EQ(active_plane_isa(), isa) << isa_name(isa);
  }
  reset_plane_isa();
  // Auto-detection never selects an unsupported ISA.
  EXPECT_TRUE(plane_isa_supported(active_plane_isa()));
}

TEST(DrawPlane, CounterStreamConsumersSeeOneStream) {
  // The plane is a cache of derived keys, not a stream: two planes
  // over the same CounterRng and the scalar path all agree.
  const CounterRng rng(1234, 5);
  const DrawPlane a(rng);
  const DrawPlane b(rng);
  std::uint32_t out_a = 0, out_b = 0;
  for_each_isa([&] {
    a.fill_range(2, 40, 1, 777, &out_a);
    b.fill_range(2, 40, 1, 777, &out_b);
    EXPECT_EQ(out_a, out_b);
    EXPECT_EQ(out_a, rng.index(2, 40, 777));
  });
}

}  // namespace
}  // namespace rbb
