// The round driver of the sharded kernels (DESIGN.md Sect. 5,
// "Pipelined execution").
//
// Every sharded round -- a single step() as well as a batched
// run(rounds) -- executes through run_pipeline: ONE resident worker
// team for the whole block of rounds, stripes statically assigned to
// team workers (stripe g -> worker g % width), and workers advancing
// through the phase sequence by publishing per-worker epoch counters
// (acquire/release; no locks, no pool traffic on the hot path).  When
// the executor cannot host a concurrent team (threads = 1, pool busy,
// nested without a grant) the same per-worker body runs inline at
// width 1: worker 0 owns every stripe and every wait is trivially
// satisfied, so it does not wait at all.
//
// Per round i, each worker executes
//
//   throw own stripes        (round i draws into the parity-(i&1)
//                             buffer set; reads/writes OWN bins only)
//   throw_done[w] = i+1      (release)
//   wait throw_done[*] >= i+1  (acquire)
//   [choose own stripes      (reads arbitrary post-departure loads)
//    choose_done[w] = i+1; wait choose_done[*] >= i+1]
//   commit own stripes       (drains every stripe's parity-(i&1)
//                             buffers destined to OWN shards)
//   commit_done[w] = i+1     (release)
//
// Note there is NO wait before the throw phase -- that is the
// pipelining.  Worker w may begin throw(i+1) while peers still commit
// round i; the counter RNG stream (dest = f(seed, round, slot)) makes
// round-(i+1) draws computable before round i retires anywhere, and the
// only state throw(i+1) touches is w's own bins, last written by w's
// own commit(i) in program order.
//
// Why buffer reuse at parity distance 2 is still safe with no extra
// wait: w's throw(i+2) is preceded (in w's program order) by w's
// round-(i+1) wait on throw_done[*] >= i+2, and a peer's throw_done
// reaching i+2 orders that peer's commit(i) -- which drained the
// parity-(i&1) buffers w is about to refill -- before the wait's
// acquire.  The same transitivity covers the choose phase's arbitrary
// load reads.  The chain is pure acquire/release on the epoch cells,
// so ThreadSanitizer sees every edge (CI runs the parity suite under
// TSan at RBB_THREADS=4).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/kernel/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rbb::kernel {

namespace detail {

/// One per-worker epoch counter on its own cache line: the number of
/// rounds of a given phase the worker has completed.  Per-worker (not
/// per-shard) granularity loses nothing: a commit needs ALL stripes'
/// throws, so every wait is inherently global.
struct alignas(64) EpochCell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Runs `rounds` rounds of (throw_fn, [choose_fn,] commit_fn) over
/// stripes [0, stripe_count): on a resident team of `width` workers
/// (width <= stripe_count; callers clamp) when width >= 2 and the
/// executor accepts the team, otherwise inline at width 1.  Phase
/// callables receive (stripe, round_index).  The first exception thrown
/// by a phase body aborts the remaining rounds cooperatively and is
/// rethrown here, leaving kernel state partially advanced.
template <typename ThrowFn, typename ChooseFn, typename CommitFn>
void run_pipeline(StripeExecutor& stripes, std::uint32_t stripe_count,
                  std::uint32_t width, std::uint64_t rounds, bool has_choose,
                  ThrowFn&& throw_fn, ChooseFn&& choose_fn,
                  CommitFn&& commit_fn) {
  std::vector<detail::EpochCell> throw_done(width);
  std::vector<detail::EpochCell> choose_done(has_choose ? width : 0);
  std::vector<detail::EpochCell> commit_done(width);
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Spin until every worker's cell reaches `target` (acquire pairs with
  // the workers' release stores).  Aborts early -- returning false --
  // when a peer has thrown.  Spin time is the pipeline's entire
  // synchronization cost and is recorded as kEpochWait; it runs inside
  // the team task body, so kPoolTask already contains it (the
  // barrier_wait_fraction denominator relies on that).  Short waits
  // (balanced stripes on real cores) stay on yield; past a bounded spin
  // budget the waiter sleeps in 50 us slices -- on an oversubscribed
  // machine the peer it waits for needs this CPU, and a spinning waiter
  // stealing timeslices from it showed up as a measurable regression on
  // the 1-core container.
  const auto wait_all = [&abort](std::vector<detail::EpochCell>& cells,
                                 std::uint64_t target) -> bool {
    constexpr std::uint32_t kSpinsBeforeSleep = 256;
    const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
    bool ok = true;
    std::uint32_t spins = 0;
    for (detail::EpochCell& cell : cells) {
      while (cell.value.load(std::memory_order_acquire) < target) {
        if (abort.load(std::memory_order_acquire)) {
          ok = false;
          break;
        }
        if (++spins < kSpinsBeforeSleep) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      if (!ok) break;
    }
    if (t0 != 0) {
      const std::uint64_t t1 = obs::now_ns();
      obs::add_phase_ns(obs::Phase::kEpochWait, t1 - t0);
      obs::record_span("epoch_wait", t0, t1);
    }
    return ok;
  };

  // Worker w of a team of `team` workers.  At team == 1 nothing can be
  // outstanding, so the waits and the overlap probe are skipped.
  const auto worker = [&](std::uint32_t w, std::uint32_t team) {
    const bool waits = team > 1;
    try {
      for (std::uint64_t i = 0; i < rounds; ++i) {
        if (abort.load(std::memory_order_acquire)) return;

        // Overlap telemetry: if any peer is still committing round i-1
        // when this worker starts throwing round i, the whole throw
        // block is work hidden behind a commit that a per-round barrier
        // would have stalled on.  Granularity is one throw phase -- an
        // honest upper-bound sample, documented in metrics.hpp.
        std::uint64_t o0 = 0;
        if (waits && i > 0 && obs::enabled()) {
          for (const detail::EpochCell& cell : commit_done) {
            if (cell.value.load(std::memory_order_relaxed) < i) {
              o0 = obs::now_ns();
              break;
            }
          }
        }
        for (std::uint32_t g = w; g < stripe_count; g += team) {
          throw_fn(g, i);
        }
        if (o0 != 0) {
          obs::add_phase_ns(obs::Phase::kOverlap, obs::now_ns() - o0);
        }
        throw_done[w].value.store(i + 1, std::memory_order_release);
        if (waits && !wait_all(throw_done, i + 1)) return;

        if (has_choose) {
          // Choose reads post-departure loads of arbitrary bins, so it
          // needs all throws of round i (the wait above) and must fully
          // precede any commit of round i (the wait below).
          for (std::uint32_t g = w; g < stripe_count; g += team) {
            choose_fn(g, i);
          }
          choose_done[w].value.store(i + 1, std::memory_order_release);
          if (waits && !wait_all(choose_done, i + 1)) return;
        }

        for (std::uint32_t g = w; g < stripe_count; g += team) {
          commit_fn(g, i);
        }
        commit_done[w].value.store(i + 1, std::memory_order_release);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_release);
    }
  };

  const bool team_ran =
      width >= 2 &&
      stripes.run_team(width, [&](std::uint32_t w) { worker(w, width); });
  if (!team_ran) worker(0, 1);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rbb::kernel
