// The round driver of the sharded kernels and the scatter exchange it
// owns (DESIGN.md Sect. 5, "Pipelined execution").
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
// The exchange between the phases is a ScatterGrid: per-(source
// stripe, target shard) arrival buffers, laid out
// [stripe * shard_count + shard], in two sets selected by block-round
// parity.  A core never sees the layout or the parity rule: its throw
// pushes through a stripe's Row (dest -> shard_of(dest)), its commit
// drains each owned shard through Set::drain, which visits the buffers
// in ascending source stripe -- the canonical arrival order every
// parity suite pins -- and clears them.
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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/kernel/exec.hpp"
#include "core/kernel/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/types.hpp"

namespace rbb::kernel {

/// The scatter exchange of the sharded cores: buffer (g, s) holds the
/// arrival words stripe g threw into shard s this round, in push order.
/// `Word` is whatever a core needs per arrival (a destination bin, a
/// {destination, token} pair, a packed {class, destination} word).
///
/// Two buffer sets alternate by block-round parity so a worker's throw
/// of round i+1 never refills buffers a peer is still committing.  The
/// odd set is sized lazily (prepare): only a block of >= 2 rounds on a
/// team of >= 2 workers can overlap, so step(), run(1), threads = 1
/// and resumed processes keep a single set.  Buffers are cleared, with
/// their capacity kept, by the commit that drains them, so every buffer
/// is empty at a round boundary (drained()) and none is ever
/// serialized.
template <typename Word>
class ScatterGrid {
 public:
  using Buffer = std::vector<Word>;

  /// One parity set, as handed to a phase body by run_pipeline.
  class Set {
   public:
    /// Stripe g's row of the set.
    class Row {
     public:
      /// Appends `word` to the buffer of dest's shard.
      void push(bin_index_t dest, const Word& word) const {
        row_[plan_.shard_of(dest)].push_back(word);
      }

     private:
      friend class Set;
      Row(Buffer* row, const ShardPlan& plan) : row_(row), plan_(plan) {}
      Buffer* row_;
      ShardPlan plan_;  // by value: shard_of stays in registers
    };

    [[nodiscard]] Row row(std::uint32_t stripe) const {
      return Row(
          bufs_ + static_cast<std::size_t>(stripe) * plan_->shard_count(),
          *plan_);
    }

    /// Visits every stripe's buffer addressed to `shard` in ascending
    /// source stripe -- fn(const Buffer&) -- and clears each one.
    template <typename Fn>
    void drain(std::uint32_t shard, Fn&& fn) const {
      const std::uint32_t shard_count = plan_->shard_count();
      for (std::uint32_t src = 0; src < plan_->stripe_count(); ++src) {
        Buffer& buf =
            bufs_[static_cast<std::size_t>(src) * shard_count + shard];
        fn(static_cast<const Buffer&>(buf));
        buf.clear();
      }
    }

   private:
    friend class ScatterGrid;
    Set(Buffer* bufs, const ShardPlan& plan) : bufs_(bufs), plan_(&plan) {}
    Buffer* bufs_;
    const ShardPlan* plan_;
  };

  /// An empty grid (sequential cores carry one and never use it).
  ScatterGrid() = default;
  explicit ScatterGrid(const ShardPlan& plan)
      : even_(static_cast<std::size_t>(plan.stripe_count()) *
              plan.shard_count()) {}

  /// Sizes the odd set before a block that can overlap rounds.
  void prepare(std::uint64_t rounds, std::uint32_t width) {
    if (rounds > 1 && width > 1 && odd_.empty()) odd_.resize(even_.size());
  }

  /// The set block round i throws into and commits from.
  [[nodiscard]] Set set(std::uint64_t i, const ShardPlan& plan) {
    return Set((i & 1) == 0 || odd_.empty() ? even_.data() : odd_.data(),
               plan);
  }

  /// True when every buffer of both sets is empty (round boundary).
  [[nodiscard]] bool drained() const noexcept {
    const auto empty = [](const Buffer& buf) { return buf.empty(); };
    return std::all_of(even_.begin(), even_.end(), empty) &&
           std::all_of(odd_.begin(), odd_.end(), empty);
  }

  /// Bytes of buffer capacity held by both sets.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    std::size_t words = 0;
    for (const Buffer& buf : even_) words += buf.capacity();
    for (const Buffer& buf : odd_) words += buf.capacity();
    return words * sizeof(Word);
  }

 private:
  std::vector<Buffer> even_;
  std::vector<Buffer> odd_;
};

namespace detail {

/// One per-worker epoch counter on its own cache line: the number of
/// rounds of a given phase the worker has completed.  Per-worker (not
/// per-shard) granularity loses nothing: a commit needs ALL stripes'
/// throws, so every wait is inherently global.
struct alignas(64) EpochCell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Runs `rounds` rounds of (throw_fn, [choose_fn,] commit_fn) over the
/// stripes of exec's plan: on a resident team of
/// width = min(stripe_count, team_width()) workers when width >= 2 and
/// the executor accepts the team, otherwise inline at width 1.  Phase
/// callables receive (stripe, round_index, set), `set` being the
/// parity-selected ScatterGrid<Word>::Set of that round.  The first
/// exception thrown by a phase body aborts the remaining rounds
/// cooperatively and is rethrown here, leaving kernel state partially
/// advanced.
template <typename Word, typename ThrowFn, typename ChooseFn,
          typename CommitFn>
void run_pipeline(ScatterGrid<Word>& grid, ShardedExecution& exec,
                  std::uint64_t rounds, bool has_choose, ThrowFn&& throw_fn,
                  ChooseFn&& choose_fn, CommitFn&& commit_fn) {
  const ShardPlan& plan = exec.plan();
  const std::uint32_t stripe_count = plan.stripe_count();
  const std::uint32_t width =
      std::min(stripe_count, exec.stripes().team_width());
  grid.prepare(rounds, width);
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
    const obs::ScopedPhase span(obs::Phase::kEpochWait);
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
    return ok;
  };

  // Worker w of a team of `team` workers.  At team == 1 nothing can be
  // outstanding, so the waits and the overlap probe are skipped.
  const auto worker = [&](std::uint32_t w, std::uint32_t team) {
    const bool waits = team > 1;
    try {
      for (std::uint64_t i = 0; i < rounds; ++i) {
        if (abort.load(std::memory_order_acquire)) return;
        const typename ScatterGrid<Word>::Set set = grid.set(i, plan);

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
          throw_fn(g, i, set);
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
            choose_fn(g, i, set);
          }
          choose_done[w].value.store(i + 1, std::memory_order_release);
          if (waits && !wait_all(choose_done, i + 1)) return;
        }

        for (std::uint32_t g = w; g < stripe_count; g += team) {
          commit_fn(g, i, set);
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
      exec.stripes().run_team(width,
                              [&](std::uint32_t w) { worker(w, width); });
  if (!team_ran) worker(0, 1);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rbb::kernel
