// Batched Philox draw-plane kernels and their runtime dispatch.
//
// Three block generators produce identical words (pinned by
// tests/support/draw_plane_test.cpp):
//
//   philox_one       -- one block through the hoisted key schedule: the
//                       portable path loops it per slot, the AVX2 path
//                       uses it for tail lanes.  A plain loop lets the
//                       compiler overlap consecutive blocks' multiply
//                       chains on its own; hand-interleaving four lanes
//                       measured about half as fast,
//   philox8_avx2     -- eight blocks in struct-of-arrays __m256i lanes;
//                       each round multiplies the even and odd 32-bit
//                       lanes with two mul_epu32 halves and re-blends the
//                       hi/lo products,
//   philox16_avx512  -- sixteen blocks in __m512i lanes; each round takes
//                       four vpmuludq, four vpermt2d recombining the
//                       hi/lo product words, and two vpternlogd for the
//                       double XOR.  Tails run masked.
//
// Dispatch order: AVX-512F, then AVX2, then portable (RBB_DRAW_PLANE_SIMD=0
// forces portable).  The portable and AVX2 paths stage each <= 64-slot
// batch as (w0, w1) words and reduce them with lemire_batch: multiply-
// shift on the first word, deferred retry on the second.  The AVX-512
// path reduces in registers (lemire8_avx512: a vpcmpuq mask against the
// hoisted threshold flags rejections) and stores sixteen draws at a
// time; its rare rejected lanes are fixed up from their second words.
// Every reduction equals lemire_bounded by the threshold < n argument in
// counter_rng.hpp.
#include "support/draw_plane.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RBB_PLANE_X86 1
#include <immintrin.h>
#else
#define RBB_PLANE_X86 0
#endif

namespace rbb {
namespace {

// ---- dispatch --------------------------------------------------------------

std::atomic<int> g_forced_isa{-1};

PlaneIsa detect_isa() noexcept {
  const char* env = std::getenv("RBB_DRAW_PLANE_SIMD");
  if (env != nullptr && env[0] == '0') return PlaneIsa::kPortable;
#if RBB_PLANE_X86
  if (__builtin_cpu_supports("avx512f")) return PlaneIsa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return PlaneIsa::kAvx2;
#endif
  return PlaneIsa::kPortable;
}

// ---- scalar block generators -----------------------------------------------

/// Slots buffered per word/Lemire pass: 64 x 2 x 8 bytes of word
/// buffers live on the caller's stack, well inside L1.
constexpr std::size_t kBatch = 64;

/// One block under a hoisted schedule; same arithmetic as philox4x32
/// with the key adds pre-expanded.
inline void philox_one(const PhiloxKeySchedule& ks, std::uint32_t c0,
                       std::uint32_t c1, std::uint32_t c2, std::uint32_t c3,
                       std::uint64_t& w0, std::uint64_t& w1) noexcept {
  std::uint32_t x0 = c0, x1 = c1, x2 = c2, x3 = c3;
  for (int r = 0; r < kPhiloxRounds; ++r) {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kPhiloxMul0) * x0;
    const std::uint64_t p1 = static_cast<std::uint64_t>(kPhiloxMul1) * x2;
    const std::uint32_t n0 =
        static_cast<std::uint32_t>(p1 >> 32) ^ x1 ^ ks[r][0];
    const std::uint32_t n2 =
        static_cast<std::uint32_t>(p0 >> 32) ^ x3 ^ ks[r][1];
    x1 = static_cast<std::uint32_t>(p1);
    x3 = static_cast<std::uint32_t>(p0);
    x0 = n0;
    x2 = n2;
  }
  w0 = x0 | (static_cast<std::uint64_t>(x1) << 32);
  w1 = x2 | (static_cast<std::uint64_t>(x3) << 32);
}

/// Words of `count` (<= kBatch) gathered slots, portable path.
void words_gather_portable(const PhiloxKeySchedule& ks,
                           const std::uint32_t* slot_lo, std::uint32_t slot_hi,
                           std::uint32_t c2, std::uint32_t c3,
                           std::size_t count, std::uint64_t* w0,
                           std::uint64_t* w1) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    philox_one(ks, slot_lo[i], slot_hi, c2, c3, w0[i], w1[i]);
  }
}

/// Words of the contiguous lo range [lo_base, lo_base + count), portable
/// path.  The caller segments at 2^32 boundaries, so lo never wraps.
void words_range_portable(const PhiloxKeySchedule& ks, std::uint32_t lo_base,
                          std::uint32_t c1, std::uint32_t c2, std::uint32_t c3,
                          std::size_t count, std::uint64_t* w0,
                          std::uint64_t* w1) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    philox_one(ks, lo_base + static_cast<std::uint32_t>(i), c1, c2, c3,
               w0[i], w1[i]);
  }
}

// ---- AVX2 block generator --------------------------------------------------

#if RBB_PLANE_X86

/// Ten Philox rounds over eight blocks in struct-of-arrays lanes.
/// mul_epu32 multiplies the even 32-bit lanes; the odd lanes go through
/// a 32-bit shift, and the hi/lo 32-bit product halves are re-blended
/// into full 8-lane vectors (0xAA = odd lanes from the second operand).
__attribute__((target("avx2"))) inline void philox8_rounds_avx2(
    const PhiloxKeySchedule& ks, __m256i& x0, __m256i& x1, __m256i& x2,
    __m256i& x3) noexcept {
  const __m256i mul0 = _mm256_set1_epi32(static_cast<int>(kPhiloxMul0));
  const __m256i mul1 = _mm256_set1_epi32(static_cast<int>(kPhiloxMul1));
  for (int r = 0; r < kPhiloxRounds; ++r) {
    const __m256i k0 = _mm256_set1_epi32(static_cast<int>(ks[r][0]));
    const __m256i k1 = _mm256_set1_epi32(static_cast<int>(ks[r][1]));
    const __m256i p0e = _mm256_mul_epu32(x0, mul0);
    const __m256i p0o = _mm256_mul_epu32(_mm256_srli_epi64(x0, 32), mul0);
    const __m256i p1e = _mm256_mul_epu32(x2, mul1);
    const __m256i p1o = _mm256_mul_epu32(_mm256_srli_epi64(x2, 32), mul1);
    const __m256i lo0 =
        _mm256_blend_epi32(p0e, _mm256_slli_epi64(p0o, 32), 0xAA);
    const __m256i hi0 =
        _mm256_blend_epi32(_mm256_srli_epi64(p0e, 32), p0o, 0xAA);
    const __m256i lo1 =
        _mm256_blend_epi32(p1e, _mm256_slli_epi64(p1o, 32), 0xAA);
    const __m256i hi1 =
        _mm256_blend_epi32(_mm256_srli_epi64(p1e, 32), p1o, 0xAA);
    x0 = _mm256_xor_si256(_mm256_xor_si256(hi1, x1), k0);
    x1 = lo1;
    x2 = _mm256_xor_si256(_mm256_xor_si256(hi0, x3), k1);
    x3 = lo0;
  }
}

/// Packs the four SoA output vectors into per-lane (w0, w1) words.
__attribute__((target("avx2"))) inline void store_words_avx2(
    __m256i x0, __m256i x1, __m256i x2, __m256i x3, std::uint64_t* w0,
    std::uint64_t* w1) noexcept {
  alignas(32) std::uint32_t a0[8], a1[8], a2[8], a3[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(a0), x0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(a1), x1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(a2), x2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(a3), x3);
  for (int l = 0; l < 8; ++l) {
    w0[l] = a0[l] | (static_cast<std::uint64_t>(a1[l]) << 32);
    w1[l] = a2[l] | (static_cast<std::uint64_t>(a3[l]) << 32);
  }
}

__attribute__((target("avx2"))) void words_gather_avx2(
    const PhiloxKeySchedule& ks, const std::uint32_t* slot_lo,
    std::uint32_t slot_hi, std::uint32_t c2, std::uint32_t c3,
    std::size_t count, std::uint64_t* w0, std::uint64_t* w1) noexcept {
  const __m256i c1v = _mm256_set1_epi32(static_cast<int>(slot_hi));
  const __m256i c2v = _mm256_set1_epi32(static_cast<int>(c2));
  const __m256i c3v = _mm256_set1_epi32(static_cast<int>(c3));
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256i x0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(slot_lo + i));
    __m256i x1 = c1v, x2 = c2v, x3 = c3v;
    philox8_rounds_avx2(ks, x0, x1, x2, x3);
    store_words_avx2(x0, x1, x2, x3, w0 + i, w1 + i);
  }
  for (; i < count; ++i) {
    philox_one(ks, slot_lo[i], slot_hi, c2, c3, w0[i], w1[i]);
  }
}

__attribute__((target("avx2"))) void words_range_avx2(
    const PhiloxKeySchedule& ks, std::uint32_t lo_base, std::uint32_t c1,
    std::uint32_t c2, std::uint32_t c3, std::size_t count, std::uint64_t* w0,
    std::uint64_t* w1) noexcept {
  const __m256i c1v = _mm256_set1_epi32(static_cast<int>(c1));
  const __m256i c2v = _mm256_set1_epi32(static_cast<int>(c2));
  const __m256i c3v = _mm256_set1_epi32(static_cast<int>(c3));
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i base = _mm256_set1_epi32(
        static_cast<int>(lo_base + static_cast<std::uint32_t>(i)));
    __m256i x0 = _mm256_add_epi32(base, iota);
    __m256i x1 = c1v, x2 = c2v, x3 = c3v;
    philox8_rounds_avx2(ks, x0, x1, x2, x3);
    store_words_avx2(x0, x1, x2, x3, w0 + i, w1 + i);
  }
  for (; i < count; ++i) {
    philox_one(ks, lo_base + static_cast<std::uint32_t>(i), c1, c2, c3,
               w0[i], w1[i]);
  }
}

// ---- AVX-512 generator and in-register reduction ---------------------------

#define RBB_AVX512 __attribute__((target("avx512f")))

// GCC 12's _mm512_undefined_epi32 (behind mul_epu32 and the immediate
// shifts) trips -Wmaybe-uninitialized once inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Second-word fix-up of the lanes in `rejected` (bit l = lane l):
/// out[l] = the multiply-shift of w1[l], as lemire_bounded takes it when
/// the first word lands in the rejection zone (probability < 2^-32).
[[gnu::cold, gnu::noinline]] void lemire_fixup(std::uint32_t rejected,
                                               const std::uint64_t* w1,
                                               std::uint32_t n,
                                               std::uint32_t* out) noexcept {
  obs::add(obs::Counter::kLemireRetries,
           static_cast<std::uint64_t>(__builtin_popcount(rejected)));
  for (; rejected != 0; rejected &= rejected - 1) {
    const int l = __builtin_ctz(rejected);
    out[l] = static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(w1[l]) * n) >> 64);
  }
}

/// Lemire on eight first words held as 64-bit lanes: the low dword of
/// `lo` / `hi` is each word's low / high half (their upper dwords are
/// ignored by vpmuludq).  Returns s = hi*n + hi32(lo*n), whose high
/// dword is hi64(w0*n), the draw.  `rejected` flags the lanes whose
/// low64(w0*n) = lo32(s):lo32(lo*n) is below the threshold.
RBB_AVX512 inline __m512i lemire8_avx512(__m512i lo, __m512i hi, __m512i nv,
                                         __m512i threshold,
                                         __mmask8& rejected) noexcept {
  const __m512i a = _mm512_mul_epu32(lo, nv);
  const __m512i s =
      _mm512_add_epi64(_mm512_mul_epu32(hi, nv), _mm512_srli_epi64(a, 32));
  const __m512i low =
      _mm512_mask_blend_epi32(0xAAAA, a, _mm512_slli_epi64(s, 32));
  rejected = _mm512_cmplt_epu64_mask(low, threshold);
  return s;
}

/// vpermt2d indices over an (even, odd) pair of 64-bit-lane products:
/// lane 2i takes the even product i, lane 2i+1 the odd product i; kLo
/// picks their low dwords, kHi their high dwords.
RBB_AVX512 inline __m512i idx_lo16() noexcept {
  return _mm512_setr_epi32(0, 16, 2, 18, 4, 20, 6, 22, 8, 24, 10, 26, 12, 28,
                           14, 30);
}
RBB_AVX512 inline __m512i idx_hi16() noexcept {
  return _mm512_setr_epi32(1, 17, 3, 19, 5, 21, 7, 23, 9, 25, 11, 27, 13, 29,
                           15, 31);
}

/// Ten Philox rounds over sixteen blocks in struct-of-arrays lanes.
RBB_AVX512 inline void philox16_rounds_avx512(const PhiloxKeySchedule& ks,
                                              __m512i& x0, __m512i& x1,
                                              __m512i& x2,
                                              __m512i& x3) noexcept {
  const __m512i mul0 = _mm512_set1_epi64(kPhiloxMul0);
  const __m512i mul1 = _mm512_set1_epi64(kPhiloxMul1);
  const __m512i lo_idx = idx_lo16();
  const __m512i hi_idx = idx_hi16();
  for (int r = 0; r < kPhiloxRounds; ++r) {
    const __m512i k0 = _mm512_set1_epi32(static_cast<int>(ks[r][0]));
    const __m512i k1 = _mm512_set1_epi32(static_cast<int>(ks[r][1]));
    const __m512i p0e = _mm512_mul_epu32(x0, mul0);
    const __m512i p0o = _mm512_mul_epu32(_mm512_srli_epi64(x0, 32), mul0);
    const __m512i p1e = _mm512_mul_epu32(x2, mul1);
    const __m512i p1o = _mm512_mul_epu32(_mm512_srli_epi64(x2, 32), mul1);
    // 0x96 = a ^ b ^ c.
    x0 = _mm512_ternarylogic_epi32(
        _mm512_permutex2var_epi32(p1e, hi_idx, p1o), x1, k0, 0x96);
    x1 = _mm512_permutex2var_epi32(p1e, lo_idx, p1o);
    x2 = _mm512_ternarylogic_epi32(
        _mm512_permutex2var_epi32(p0e, hi_idx, p0o), x3, k1, 0x96);
    x3 = _mm512_permutex2var_epi32(p0e, lo_idx, p0o);
  }
}

/// Reduces sixteen finished blocks to bounded draws and stores the
/// `valid` lanes to out.  Even and odd lanes reduce as two 64-bit-lane
/// halves; rejected lanes (cold) are fixed up from x2:x3.
RBB_AVX512 inline void store_draws16_avx512(__m512i x0, __m512i x1,
                                            __m512i x2, __m512i x3,
                                            __m512i nv, __m512i threshold,
                                            std::uint32_t n, __mmask16 valid,
                                            std::uint32_t* out) noexcept {
  __mmask8 rej_even = 0, rej_odd = 0;
  const __m512i se = lemire8_avx512(x0, x1, nv, threshold, rej_even);
  const __m512i so =
      lemire8_avx512(_mm512_srli_epi64(x0, 32), _mm512_srli_epi64(x1, 32),
                     nv, threshold, rej_odd);
  _mm512_mask_storeu_epi32(out, valid,
                           _mm512_permutex2var_epi32(se, idx_hi16(), so));
  if (__builtin_expect((rej_even | rej_odd) != 0, 0)) {
    alignas(64) std::uint32_t a2[16], a3[16];
    _mm512_store_si512(a2, x2);
    _mm512_store_si512(a3, x3);
    std::uint64_t w1[16];
    std::uint32_t rejected = 0;
    for (int i = 0; i < 8; ++i) {
      rejected |= ((rej_even >> i) & 1u) << (2 * i);
      rejected |= ((rej_odd >> i) & 1u) << (2 * i + 1);
    }
    for (int l = 0; l < 16; ++l) {
      w1[l] = a2[l] | (static_cast<std::uint64_t>(a3[l]) << 32);
    }
    rejected &= valid;
    if (rejected != 0) lemire_fixup(rejected, w1, n, out);
  }
}

/// Lanes [0, rem) of a sixteen-lane set, rem clamped to 16.
inline __mmask16 lanes_mask16(std::size_t rem) noexcept {
  return rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                   : static_cast<__mmask16>((1u << rem) - 1);
}

RBB_AVX512 void draws_gather_avx512(const PhiloxKeySchedule& ks,
                                    const std::uint32_t* slot_lo,
                                    std::uint32_t slot_hi, std::uint32_t c2,
                                    std::uint32_t c3, std::size_t count,
                                    std::uint32_t n, std::uint64_t threshold,
                                    std::uint32_t* out) noexcept {
  const __m512i c1v = _mm512_set1_epi32(static_cast<int>(slot_hi));
  const __m512i c2v = _mm512_set1_epi32(static_cast<int>(c2));
  const __m512i c3v = _mm512_set1_epi32(static_cast<int>(c3));
  const __m512i nv = _mm512_set1_epi64(n);
  const __m512i tv = _mm512_set1_epi64(static_cast<long long>(threshold));
  for (std::size_t i = 0; i < count; i += 16) {
    const __mmask16 valid = lanes_mask16(count - i);
    __m512i x0 = _mm512_maskz_loadu_epi32(valid, slot_lo + i);
    __m512i x1 = c1v, x2 = c2v, x3 = c3v;
    philox16_rounds_avx512(ks, x0, x1, x2, x3);
    store_draws16_avx512(x0, x1, x2, x3, nv, tv, n, valid, out + i);
  }
}

/// The caller segments at 2^32 boundaries, so the valid lanes' lo words
/// never wrap.
RBB_AVX512 void draws_range_avx512(const PhiloxKeySchedule& ks,
                                   std::uint32_t lo_base, std::uint32_t c1,
                                   std::uint32_t c2, std::uint32_t c3,
                                   std::size_t count, std::uint32_t n,
                                   std::uint64_t threshold,
                                   std::uint32_t* out) noexcept {
  const __m512i c1v = _mm512_set1_epi32(static_cast<int>(c1));
  const __m512i c2v = _mm512_set1_epi32(static_cast<int>(c2));
  const __m512i c3v = _mm512_set1_epi32(static_cast<int>(c3));
  const __m512i nv = _mm512_set1_epi64(n);
  const __m512i tv = _mm512_set1_epi64(static_cast<long long>(threshold));
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  for (std::size_t i = 0; i < count; i += 16) {
    __m512i x0 = _mm512_add_epi32(
        _mm512_set1_epi32(
            static_cast<int>(lo_base + static_cast<std::uint32_t>(i))),
        iota);
    __m512i x1 = c1v, x2 = c2v, x3 = c3v;
    philox16_rounds_avx512(ks, x0, x1, x2, x3);
    store_draws16_avx512(x0, x1, x2, x3, nv, tv, n, lanes_mask16(count - i),
                         out + i);
  }
}

/// lemire_bounded_batch on AVX-512: sixteen words per step as two
/// 64-bit-lane halves, masked tails padded with all-ones first words
/// (low64(w0*n) = 2^64 - n, never below the threshold).
RBB_AVX512 void lemire_batch_avx512(const std::uint64_t* w0,
                                    const std::uint64_t* w1,
                                    std::size_t count, std::uint32_t n,
                                    std::uint64_t threshold,
                                    std::uint32_t* out) noexcept {
  const __m512i nv = _mm512_set1_epi64(n);
  const __m512i tv = _mm512_set1_epi64(static_cast<long long>(threshold));
  const __m512i ones = _mm512_set1_epi64(-1);
  const __m512i hi_idx = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19,
                                           21, 23, 25, 27, 29, 31);
  for (std::size_t i = 0; i < count; i += 16) {
    const __mmask16 valid = lanes_mask16(count - i);
    const __m512i wa = _mm512_mask_loadu_epi64(
        ones, static_cast<__mmask8>(valid), w0 + i);
    const __m512i wb = _mm512_mask_loadu_epi64(
        ones, static_cast<__mmask8>(valid >> 8), w0 + i + 8);
    __mmask8 rej_a = 0, rej_b = 0;
    const __m512i sa =
        lemire8_avx512(wa, _mm512_srli_epi64(wa, 32), nv, tv, rej_a);
    const __m512i sb =
        lemire8_avx512(wb, _mm512_srli_epi64(wb, 32), nv, tv, rej_b);
    _mm512_mask_storeu_epi32(out + i, valid,
                             _mm512_permutex2var_epi32(sa, hi_idx, sb));
    const std::uint32_t rejected =
        (static_cast<std::uint32_t>(rej_a) |
         (static_cast<std::uint32_t>(rej_b) << 8)) &
        valid;
    if (__builtin_expect(rejected != 0, 0)) {
      lemire_fixup(rejected, w1 + i, n, out + i);
    }
  }
}

#pragma GCC diagnostic pop
#undef RBB_AVX512

#endif  // RBB_PLANE_X86

// ---- batched bounded reduction ---------------------------------------------

/// out[i] = lemire_bounded(w0[i], w1[i], n) with the threshold hoisted:
/// the main loop commits the w0 multiply-shift branch-free and records
/// rejected lanes (probability threshold / 2^64 < 2^-32 each) on a
/// retry list resolved from the stored second words afterwards.
/// count <= kBatch (the retry list is stack-sized).
inline void lemire_batch(const std::uint64_t* w0, const std::uint64_t* w1,
                         std::size_t count, std::uint32_t n,
                         std::uint64_t threshold,
                         std::uint32_t* out) noexcept {
  std::uint32_t retry[kBatch];
  std::size_t retries = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const __uint128_t m = static_cast<__uint128_t>(w0[i]) * n;
    out[i] = static_cast<std::uint32_t>(m >> 64);
    retry[retries] = static_cast<std::uint32_t>(i);
    retries += static_cast<std::size_t>(static_cast<std::uint64_t>(m) <
                                        threshold);
  }
  for (std::size_t k = 0; k < retries; ++k) {
    const std::uint32_t i = retry[k];
    out[i] = static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(w1[i]) * n) >> 64);
  }
  // The scalar lemire_bounded stays constexpr (KAT-pinned); the retry
  // telemetry lives here because every hot consumer reduces in batches.
  if (retries != 0) obs::add(obs::Counter::kLemireRetries, retries);
}

// ---- batch dispatch --------------------------------------------------------

/// Draws of one <= kBatch-slot batch of the contiguous lo range
/// [lo, lo + len) on `isa`.
void range_batch(PlaneIsa isa, const PhiloxKeySchedule& ks, std::uint32_t lo,
                 std::uint32_t hi, std::uint32_t c2, std::uint32_t c3,
                 std::size_t len, std::uint32_t n, std::uint64_t threshold,
                 std::uint32_t* out) noexcept {
  std::uint64_t w0[kBatch], w1[kBatch];
#if RBB_PLANE_X86
  if (isa == PlaneIsa::kAvx512) {
    draws_range_avx512(ks, lo, hi, c2, c3, len, n, threshold, out);
    return;
  }
  if (isa == PlaneIsa::kAvx2) {
    words_range_avx2(ks, lo, hi, c2, c3, len, w0, w1);
  } else {
    words_range_portable(ks, lo, hi, c2, c3, len, w0, w1);
  }
#else
  (void)isa;
  words_range_portable(ks, lo, hi, c2, c3, len, w0, w1);
#endif
  lemire_batch(w0, w1, len, n, threshold, out);
}

/// Draws of one <= kBatch-slot batch of a gathered slot list on `isa`.
void gather_batch(PlaneIsa isa, const PhiloxKeySchedule& ks,
                  const std::uint32_t* slot_lo, std::uint32_t slot_hi,
                  std::uint32_t c2, std::uint32_t c3, std::size_t len,
                  std::uint32_t n, std::uint64_t threshold,
                  std::uint32_t* out) noexcept {
  std::uint64_t w0[kBatch], w1[kBatch];
#if RBB_PLANE_X86
  if (isa == PlaneIsa::kAvx512) {
    draws_gather_avx512(ks, slot_lo, slot_hi, c2, c3, len, n, threshold, out);
    return;
  }
  if (isa == PlaneIsa::kAvx2) {
    words_gather_avx2(ks, slot_lo, slot_hi, c2, c3, len, w0, w1);
  } else {
    words_gather_portable(ks, slot_lo, slot_hi, c2, c3, len, w0, w1);
  }
#else
  (void)isa;
  words_gather_portable(ks, slot_lo, slot_hi, c2, c3, len, w0, w1);
#endif
  lemire_batch(w0, w1, len, n, threshold, out);
}

obs::Counter batch_counter(PlaneIsa isa) noexcept {
  switch (isa) {
    case PlaneIsa::kAvx512: return obs::Counter::kPlaneBatchesAvx512;
    case PlaneIsa::kAvx2: return obs::Counter::kPlaneBatchesAvx2;
    case PlaneIsa::kPortable: break;
  }
  return obs::Counter::kPlaneBatchesPortable;
}

/// Closes a fill's telemetry span.
void record_fill(PlaneIsa isa, std::uint64_t t0, std::uint64_t batches,
                 std::size_t draws) noexcept {
  obs::add_phase_ns(obs::Phase::kPlaneFill, obs::now_ns() - t0);
  obs::add(batch_counter(isa), batches);
  obs::add(obs::Counter::kPlaneDraws, draws);
}

}  // namespace

// ---- public surface --------------------------------------------------------

PlaneIsa active_plane_isa() noexcept {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<PlaneIsa>(forced);
  static const PlaneIsa detected = detect_isa();
  return detected;
}

bool plane_isa_supported(PlaneIsa isa) noexcept {
  switch (isa) {
    case PlaneIsa::kPortable: return true;
#if RBB_PLANE_X86
    case PlaneIsa::kAvx2: return __builtin_cpu_supports("avx2") != 0;
    case PlaneIsa::kAvx512: return __builtin_cpu_supports("avx512f") != 0;
#else
    default: return false;
#endif
  }
  return false;
}

void force_plane_isa(PlaneIsa isa) noexcept {
  g_forced_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void reset_plane_isa() noexcept {
  g_forced_isa.store(-1, std::memory_order_relaxed);
}

void lemire_bounded_batch(const std::uint64_t* w0, const std::uint64_t* w1,
                          std::size_t count, std::uint32_t n,
                          std::uint32_t* out) noexcept {
  const std::uint64_t threshold = (0 - std::uint64_t{n}) % n;
#if RBB_PLANE_X86
  if (active_plane_isa() == PlaneIsa::kAvx512) {
    lemire_batch_avx512(w0, w1, count, n, threshold, out);
    return;
  }
#endif
  while (count > 0) {
    const std::size_t len = std::min(count, kBatch);
    lemire_batch(w0, w1, len, n, threshold, out);
    w0 += len;
    w1 += len;
    out += len;
    count -= len;
  }
}

void DrawPlane::fill_range(std::uint64_t round, std::uint64_t slot_begin,
                           std::size_t count, std::uint32_t n,
                           std::uint32_t* out) const noexcept {
  const std::uint64_t threshold = (0 - std::uint64_t{n}) % n;
  const auto c2 = static_cast<std::uint32_t>(round);
  const auto c3 = static_cast<std::uint32_t>(round >> 32);
  const PlaneIsa isa = active_plane_isa();
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  std::uint64_t batches = 0;
  const std::size_t total = count;
  while (count > 0) {
    const auto lo = static_cast<std::uint32_t>(slot_begin);
    const auto hi = static_cast<std::uint32_t>(slot_begin >> 32);
    // Segment at the next 2^32 slot boundary so the lo words of one
    // batch never wrap (the hi word is lane-uniform per batch).
    const std::uint64_t to_boundary = 0x100000000ull - lo;
    std::size_t len = std::min<std::uint64_t>(count, to_boundary);
    len = std::min(len, kBatch);
    range_batch(isa, schedule_, lo, hi, c2, c3, len, n, threshold, out);
    ++batches;
    slot_begin += len;
    out += len;
    count -= len;
  }
  if (t0 != 0) record_fill(isa, t0, batches, total);
}

void DrawPlane::fill_gather(std::uint64_t round, const std::uint32_t* slot_lo,
                            std::uint32_t slot_hi, std::size_t count,
                            std::uint32_t n,
                            std::uint32_t* out) const noexcept {
  const std::uint64_t threshold = (0 - std::uint64_t{n}) % n;
  const auto c2 = static_cast<std::uint32_t>(round);
  const auto c3 = static_cast<std::uint32_t>(round >> 32);
  const PlaneIsa isa = active_plane_isa();
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  std::uint64_t batches = 0;
  const std::size_t total = count;
  while (count > 0) {
    const std::size_t len = std::min(count, kBatch);
    gather_batch(isa, schedule_, slot_lo, slot_hi, c2, c3, len, n, threshold,
                 out);
    ++batches;
    slot_lo += len;
    out += len;
    count -= len;
  }
  if (t0 != 0) record_fill(isa, t0, batches, total);
}

}  // namespace rbb
