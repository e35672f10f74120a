// Telemetry parity rider: instrumenting the kernels must not change
// the science.  The sharded kernels run the same trajectory whether
// telemetry is disabled, enabled, or enabled with a trace capturing --
// the ScopedPhase/counter hooks read clocks and bump thread-local
// cells, never kernel state or RNG streams.
//
// Under RBB_TELEMETRY=0 all three configurations are literally the
// same code, so this test doubles as a no-op-build smoke.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/queue_policy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"

namespace rbb::obs {
namespace {

constexpr std::uint32_t kN = 2048;
constexpr std::uint64_t kSeed = 0x7e1e3ULL;
constexpr std::uint64_t kRounds = 32;

enum class Mode { kOff, kMetrics, kMetricsAndTrace };

/// Runs `body` under one telemetry configuration and restores the
/// registry to the disabled state afterwards.
template <typename Body>
auto with_mode(Mode mode, Body body) {
  reset();
  if (mode != Mode::kOff) {
    if (mode == Mode::kMetricsAndTrace) start_trace();
    set_enabled(true);
  }
  auto result = body();
  set_enabled(false);
  stop_trace();
  reset();
  return result;
}

/// Load-only trajectory: end-of-round stats plus the final load vector.
struct LoadTrajectory {
  std::vector<std::uint32_t> max_loads;
  std::vector<std::uint32_t> empty_bins;
  std::vector<std::uint64_t> departures;
  LoadConfig final_loads;

  bool operator==(const LoadTrajectory&) const = default;
};

LoadTrajectory run_load(Mode mode) {
  return with_mode(mode, [] {
    Rng cfg_rng(99);
    par::ShardedRepeatedBallsProcess proc(
        make_config(InitialConfig::kOnePerBin, kN, kN, cfg_rng), kSeed,
        par::ShardedOptions{.threads = 2, .shard_size = 256});
    LoadTrajectory t;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const RoundStats stats = proc.step();
      t.max_loads.push_back(stats.max_load);
      t.empty_bins.push_back(stats.empty_bins);
      t.departures.push_back(stats.departures);
    }
    t.final_loads = proc.loads();
    return t;
  });
}

/// Token state after a run: positions, progress, loads.
struct TokenState {
  std::vector<std::uint32_t> token_bin;
  std::vector<std::uint64_t> progress;
  LoadConfig loads;

  bool operator==(const TokenState&) const = default;
};

TokenState run_token(Mode mode) {
  return with_mode(mode, [] {
    par::ShardedTokenProcess proc(
        kN, identity_placement(kN), kSeed,
        par::ShardedOptions{.threads = 2, .shard_size = 256});
    proc.run(kRounds);
    TokenState state;
    for (std::uint32_t i = 0; i < proc.token_count(); ++i) {
      state.token_bin.push_back(proc.token_bin(i));
      state.progress.push_back(proc.progress(i));
    }
    state.loads = proc.loads();
    return state;
  });
}

TEST(ObsParity, LoadKernelTrajectoryUnchangedByTelemetry) {
  const LoadTrajectory off = run_load(Mode::kOff);
  const LoadTrajectory metrics = run_load(Mode::kMetrics);
  const LoadTrajectory traced = run_load(Mode::kMetricsAndTrace);
  EXPECT_EQ(off, metrics);
  EXPECT_EQ(off, traced);
}

TEST(ObsParity, TokenKernelStateUnchangedByTelemetry) {
  const TokenState off = run_token(Mode::kOff);
  const TokenState metrics = run_token(Mode::kMetrics);
  const TokenState traced = run_token(Mode::kMetricsAndTrace);
  EXPECT_EQ(off, metrics);
  EXPECT_EQ(off, traced);
}

#if RBB_TELEMETRY
/// What one instrumented block left behind: the registry scrape and the
/// captured trace events.
struct Recorded {
  MetricsSnapshot snap;
  std::vector<detail::TraceEvent> events;
};

/// Runs `body` with metrics and a trace capturing.
template <typename Body>
Recorded record(Body body) {
  return with_mode(Mode::kMetricsAndTrace, [&] {
    body();
    return Recorded{scrape(), detail::collect_trace_events()};
  });
}

/// A fresh one-ball-per-bin sharded load process on `threads` workers.
par::ShardedRepeatedBallsProcess load_process(unsigned threads) {
  Rng cfg_rng(99);
  return par::ShardedRepeatedBallsProcess(
      make_config(InitialConfig::kOnePerBin, kN, kN, cfg_rng), kSeed,
      par::ShardedOptions{.threads = threads, .shard_size = 256});
}

std::size_t spans_named(const Recorded& rec, std::string_view name) {
  std::size_t count = 0;
  for (const detail::TraceEvent& e : rec.events) {
    if (name == e.name) ++count;
  }
  return count;
}

// The parity above must not be vacuous: in the instrumented build a
// sharded run really records -- throw/commit phase time, draw-chunk
// flushes, pool batches.  (Under RBB_TELEMETRY=0 it records nothing by
// design; the zero-cost contract is pinned in metrics_test.cpp.)  It
// also pins the round driver's dispatch count: every step() is a block
// of one round and costs exactly one team batch, a run(k) block costs
// one batch in total, and the width-1 inline case (threads = 1) never
// waits, so it records no epoch_wait or overlap.  The rescan span count
// pins that the statistics pass runs once per block, not per round.
TEST(ObsParity, InstrumentedRunActuallyRecords) {
  const Recorded stepped = record([] {
    auto proc = load_process(2);
    for (std::uint64_t r = 0; r < 4; ++r) proc.step();
  });
  const MetricsSnapshot& snap = stepped.snap;
  EXPECT_GT(snap.phase(Phase::kThrow), 0u);
  EXPECT_GT(snap.phase(Phase::kCommit), 0u);
  EXPECT_GT(snap.counter(Counter::kChunkFlushes), 0u);
  EXPECT_GT(snap.counter(Counter::kPoolBatches), 0u);
  EXPECT_EQ(snap.counter(Counter::kPoolBatches), 4u);

  const Recorded batched = record([] { load_process(2).run(4); });
  EXPECT_EQ(batched.snap.counter(Counter::kPoolBatches), 1u);

  const Recorded inline_run = record([] { load_process(1).run(4); });
  EXPECT_GT(inline_run.snap.phase(Phase::kThrow), 0u);
  EXPECT_EQ(inline_run.snap.counter(Counter::kPoolBatches), 0u);
  EXPECT_EQ(inline_run.snap.phase(Phase::kEpochWait), 0u);
  EXPECT_EQ(inline_run.snap.phase(Phase::kOverlap), 0u);
  EXPECT_EQ(spans_named(inline_run, "epoch_wait"), 0u);

  // Round statistics are rescanned once per block, on its last round:
  // one span per shard for run(4), four times that for four step()s.
  const std::size_t shards = load_process(1).plan().shard_count();
  EXPECT_EQ(spans_named(inline_run, "rescan"), shards);
  const Recorded inline_steps = record([] {
    auto proc = load_process(1);
    for (std::uint64_t r = 0; r < 4; ++r) proc.step();
  });
  EXPECT_EQ(spans_named(inline_steps, "rescan"), 4 * shards);
}
#endif  // RBB_TELEMETRY

}  // namespace
}  // namespace rbb::obs
