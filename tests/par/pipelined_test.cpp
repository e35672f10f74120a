// Parity tests for the sharded round driver (core/kernel/pipeline.hpp).
// Every sharded round runs through it: run(rounds) is one block of
// `rounds` rounds on a resident worker team with double-buffered
// scatter buffers, step() is a block of one round, and when no team can
// be hosted the same per-worker body runs inline at width 1.  These
// tests pin that a multi-round block is bit-identical to the per-step
// loop AND to the sequential counter-stream oracles -- for every kernel
// family, worker count {1, 2, 8} and shard size {64, 256, 1024}.
// threads = 1 has no pool, so that column runs the width-1 inline case.
//
// The load, token and mixed grids also vary where run() is issued from
// (Host): the test thread; a task of an outer ThreadPool without a
// NestedParallelismGrant, where the team is refused and every row runs
// inline at width 1 whatever its `threads`; and the same task under a
// grant, where the kernel's own pool hosts the team.  Neither may
// deadlock, and both must match the oracle.
//
// The hot-shard straggler cases are the schedule the pipeline has to
// survive: one stripe carries (almost) all the work, so its owner
// commits rounds long after every peer has raced ahead to the next
// throw -- maximum overlap, maximum reuse pressure on the parity
// buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "par/sharded_mixed.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"
#include "support/thread_pool.hpp"

namespace rbb::par {
namespace {

constexpr std::uint32_t kN = 4096;
constexpr std::uint64_t kSeed = 0x9a11edULL;
constexpr std::uint64_t kRounds = 48;

const ShardedOptions kGrid[] = {
    {.threads = 1, .shard_size = 64},   {.threads = 1, .shard_size = 256},
    {.threads = 1, .shard_size = 1024}, {.threads = 2, .shard_size = 64},
    {.threads = 2, .shard_size = 256},  {.threads = 2, .shard_size = 1024},
    {.threads = 8, .shard_size = 64},   {.threads = 8, .shard_size = 256},
    {.threads = 8, .shard_size = 1024},
};

enum class Host { kDirect, kRefusedTeam, kGrantedTeam };
constexpr Host kHosts[] = {Host::kDirect, Host::kRefusedTeam,
                           Host::kGrantedTeam};

/// Runs `fn` on the test thread (kDirect) or inside a task of an outer
/// pool, without (kRefusedTeam) or with (kGrantedTeam) a nesting grant.
template <typename Fn>
void on_host(Host host, Fn&& fn) {
  if (host == Host::kDirect) {
    fn();
    return;
  }
  ThreadPool outer(1);
  outer.for_each(1, [&](std::uint64_t) {
    if (host == Host::kGrantedTeam) {
      const NestedParallelismGrant grant;
      EXPECT_TRUE(ThreadPool::nested_allowed(nullptr));
      fn();
    } else {
      EXPECT_FALSE(ThreadPool::nested_allowed(nullptr));
      fn();
    }
  });
}

LoadConfig start_config(InitialConfig kind = InitialConfig::kOnePerBin) {
  Rng rng(99);
  return make_config(kind, kN, kN, rng);
}

// --- load-only --------------------------------------------------------------

TEST(PipelinedParity, LoadMatchesSteppedAndOracle) {
  SequentialCounterProcess oracle(start_config(), kSeed);
  RoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const Host host : kHosts) {
    for (const ShardedOptions& options : kGrid) {
      ShardedRepeatedBallsProcess pipelined(start_config(), kSeed, options);
      RoundStats got{};
      on_host(host, [&] { got = pipelined.run(kRounds); });
      EXPECT_EQ(got.max_load, want.max_load);
      EXPECT_EQ(got.empty_bins, want.empty_bins);
      EXPECT_EQ(got.departures, want.departures);
      EXPECT_EQ(pipelined.loads(), oracle.loads());
      EXPECT_EQ(pipelined.round(), kRounds);
      ASSERT_NO_THROW(pipelined.check_invariants());

      ShardedRepeatedBallsProcess stepped(start_config(), kSeed, options);
      on_host(host, [&] {
        for (std::uint64_t r = 0; r < kRounds; ++r) stepped.step();
      });
      EXPECT_EQ(pipelined.loads(), stepped.loads());
    }
  }
}

TEST(PipelinedParity, LoadRunThenStepContinuesTheSameTrajectory) {
  // A multi-round block must leave the kernel in a state from which
  // plain stepping continues the exact oracle trajectory (round
  // counter, scratch and scatter buffers all consistent).
  SequentialCounterProcess oracle(start_config(), kSeed);
  ShardedRepeatedBallsProcess sharded(start_config(), kSeed,
                                      {.threads = 2, .shard_size = 256});
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();
  sharded.run(kRounds / 2);
  for (std::uint64_t r = kRounds / 2; r < kRounds; ++r) sharded.step();
  EXPECT_EQ(sharded.loads(), oracle.loads());
  EXPECT_EQ(sharded.round(), kRounds);
}

TEST(PipelinedParity, LoadBackToBackRunsReuseBothBufferSets) {
  // Consecutive pipelined runs of odd length start each run on the
  // even-parity set with buffers from the previous run's final rounds
  // still sized; the trajectory must not care.
  SequentialCounterProcess oracle(start_config(), kSeed);
  ShardedRepeatedBallsProcess sharded(start_config(), kSeed,
                                      {.threads = 8, .shard_size = 64});
  for (std::uint64_t r = 0; r < 21; ++r) oracle.step();
  sharded.run(7);
  sharded.run(7);
  sharded.run(7);
  EXPECT_EQ(sharded.loads(), oracle.loads());
  EXPECT_EQ(sharded.round(), 21u);
}

TEST(PipelinedParity, LoadDrawChunkFlushBoundaries) {
  // The load-only throw banks releasing bins into kDrawChunk-slot chunks
  // and flushes a chunk as it fills.  Four stripes of 1024 bins start
  // with exactly 0, kDrawChunk, 2 kDrawChunk and 1023 releasing bins:
  // no flush at all, exactly one and two full flushes with no tail, and
  // three full flushes plus a tail.
  constexpr std::uint32_t kChunk = kernel::kDrawChunk;
  constexpr std::uint32_t kStripeBins = 1024;
  const auto config = [] {
    LoadConfig q(4 * kStripeBins, 0);
    for (std::uint32_t i = 0; i < kChunk; ++i) q[kStripeBins + 4 * i + 1] = 1;
    for (std::uint32_t i = 0; i < 2 * kChunk; ++i) {
      q[2 * kStripeBins + 2 * i] = 3;
    }
    for (std::uint32_t i = 1; i < kStripeBins; ++i) q[3 * kStripeBins + i] = 2;
    return q;
  };
  const ShardedOptions probe{.threads = 1, .shard_size = kStripeBins};
  ASSERT_EQ(ShardedRepeatedBallsProcess(config(), kSeed, probe)
                .plan()
                .stripe_count(),
            4u);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    SequentialCounterProcess oracle(config(), kSeed);
    ShardedRepeatedBallsProcess sharded(
        config(), kSeed, {.threads = threads, .shard_size = kStripeBins});
    for (const std::uint64_t k : {1u, 1u, 6u}) {
      const RoundStats got = sharded.run(k);
      RoundStats want{};
      for (std::uint64_t r = 0; r < k; ++r) want = oracle.step();
      EXPECT_EQ(got.departures, want.departures);
      EXPECT_EQ(got.max_load, want.max_load);
      EXPECT_EQ(got.empty_bins, want.empty_bins);
      EXPECT_EQ(sharded.loads(), oracle.loads());
      ASSERT_NO_THROW(sharded.check_invariants());
    }
    EXPECT_EQ(sharded.round(), 8u);
  }
}

// --- hot-shard stragglers ---------------------------------------------------

TEST(PipelinedParity, LoadSurvivesHotShardStraggler) {
  // All n balls in bin 0: stripe 0's owner throws and commits nearly
  // all the work while every peer spins ahead.
  SequentialCounterProcess oracle(start_config(InitialConfig::kAllInOne),
                                  kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();

  for (const ShardedOptions& options :
       {ShardedOptions{.threads = 8, .shard_size = 64},
        ShardedOptions{.threads = 2, .shard_size = 1024}}) {
    ShardedRepeatedBallsProcess pipelined(
        start_config(InitialConfig::kAllInOne), kSeed, options);
    pipelined.run(kRounds);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

TEST(PipelinedParity, MixedSurvivesSkewedRateStraggler) {
  // stalled-tenth: 10% of bins release nothing, the rest drain fast --
  // the drop accounting is commit-order sensitive, so any buffer-reuse
  // bug shows up as a different bounce set.
  const MixedSpec spec = make_mixed_spec(1024, 8.0, "zipf", "stalled-tenth");
  SequentialCounterMixedProcess oracle(spec, kSeed);
  MixedRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  ShardedMixedProcess pipelined(spec, kSeed, {.threads = 8, .shard_size = 64});
  const MixedRoundStats got = pipelined.run(kRounds);
  EXPECT_EQ(got.max_load, want.max_load);
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_EQ(got.total_weight, want.total_weight);
  EXPECT_EQ(pipelined.loads(), oracle.loads());
  EXPECT_EQ(pipelined.dropped_balls(), oracle.dropped_balls());
  ASSERT_NO_THROW(pipelined.check_invariants());
}

// --- refill variants (tetris, leaky) ----------------------------------------

TEST(PipelinedParity, TetrisMatchesOracle) {
  SequentialCounterTetrisProcess oracle(start_config(InitialConfig::kRandom),
                                        kSeed);
  TetrisRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const ShardedOptions& options : kGrid) {
    ShardedTetrisProcess pipelined(start_config(InitialConfig::kRandom), kSeed,
                                   0, options);
    const TetrisRoundStats got = pipelined.run(kRounds);
    EXPECT_EQ(got.max_load, want.max_load);
    EXPECT_EQ(got.empty_bins, want.empty_bins);
    EXPECT_EQ(got.total_balls, want.total_balls);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    for (std::uint32_t u = 0; u < kN; ++u) {
      ASSERT_EQ(pipelined.first_empty_round(u), oracle.first_empty_round(u))
          << "bin " << u;
    }
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

TEST(PipelinedParity, LeakyMatchesOracleIncludingArrivalDraws) {
  // Leaky bins draw a Binomial(n, lambda) arrival count per round; the
  // pipelined path hoists those draws ahead of the team, so the last
  // round's arrivals figure is the cross-check that the hoist hits the
  // same substream.
  constexpr double kLambda = 0.6;
  SequentialCounterLeakyBinsProcess oracle(start_config(), kLambda, kSeed);
  LeakyRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const ShardedOptions& options :
       {ShardedOptions{.threads = 2, .shard_size = 256},
        ShardedOptions{.threads = 8, .shard_size = 64}}) {
    ShardedLeakyBinsProcess pipelined(start_config(), kLambda, kSeed, options);
    const LeakyRoundStats got = pipelined.run(kRounds);
    EXPECT_EQ(got.total_balls, want.total_balls);
    EXPECT_EQ(got.arrivals, want.arrivals);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

// --- choose-phase variants (d-choices, threshold) ---------------------------

TEST(PipelinedParity, DChoicesMatchesOracle) {
  constexpr std::uint32_t kD = 3;
  SequentialCounterDChoicesProcess oracle(start_config(), kD, kSeed);
  DChoicesRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const ShardedOptions& options : kGrid) {
    ShardedDChoicesProcess pipelined(start_config(), kD, kSeed, options);
    const DChoicesRoundStats got = pipelined.run(kRounds);
    EXPECT_EQ(got.max_load, want.max_load);
    EXPECT_EQ(got.empty_bins, want.empty_bins);
    EXPECT_EQ(got.departures, want.departures);
    EXPECT_EQ(pipelined.loads(), oracle.loads());
    ASSERT_NO_THROW(pipelined.check_invariants());
  }
}

TEST(PipelinedParity, ThresholdMatchesOracle) {
  constexpr load_t kThreshold = 4;
  constexpr std::uint32_t kProbes = 2;
  SequentialCounterThresholdProcess oracle(start_config(), kThreshold, kProbes,
                                           kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();

  ShardedThresholdProcess pipelined(start_config(), kThreshold, kProbes, kSeed,
                                    {.threads = 8, .shard_size = 256});
  pipelined.run(kRounds);
  EXPECT_EQ(pipelined.loads(), oracle.loads());
  ASSERT_NO_THROW(pipelined.check_invariants());
}

// --- token ------------------------------------------------------------------

TEST(PipelinedParity, TokenMatchesOracle) {
  SequentialCounterTokenProcess oracle(kN, identity_placement(kN), kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();

  for (const Host host : kHosts) {
    for (const ShardedOptions& options : kGrid) {
      ShardedTokenProcess pipelined(kN, identity_placement(kN), kSeed,
                                    options);
      on_host(host, [&] { pipelined.run(kRounds); });
      EXPECT_EQ(pipelined.loads(), oracle.loads());
      for (std::uint32_t i = 0; i < kN; ++i) {
        ASSERT_EQ(pipelined.token_bin(i), oracle.token_bin(i))
            << "token " << i;
        ASSERT_EQ(pipelined.progress(i), oracle.progress(i)) << "token " << i;
      }
      ASSERT_NO_THROW(pipelined.check_invariants());
    }
  }
}

TEST(PipelinedParity, TokenHotQueueStraggler) {
  // Every token starts in bin 0: the front stripe drains one token per
  // round while peers overlap far ahead.
  SequentialCounterTokenProcess oracle(
      kN, std::vector<std::uint32_t>(kN, 0u), kSeed);
  for (std::uint64_t r = 0; r < kRounds; ++r) oracle.step();

  ShardedTokenProcess pipelined(kN, std::vector<std::uint32_t>(kN, 0u), kSeed,
                                {.threads = 8, .shard_size = 64});
  pipelined.run(kRounds);
  EXPECT_EQ(pipelined.loads(), oracle.loads());
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(pipelined.token_bin(i), oracle.token_bin(i)) << "token " << i;
  }
}

// --- mixed ------------------------------------------------------------------

TEST(PipelinedParity, MixedMatchesOracle) {
  const MixedSpec spec = make_mixed_spec(1024, 8.0, "zipf", "capped");
  SequentialCounterMixedProcess oracle(spec, kSeed);
  MixedRoundStats want{};
  for (std::uint64_t r = 0; r < kRounds; ++r) want = oracle.step();

  for (const Host host : kHosts) {
    for (const ShardedOptions& options : kGrid) {
      ShardedMixedProcess pipelined(spec, kSeed, options);
      MixedRoundStats got{};
      on_host(host, [&] { got = pipelined.run(kRounds); });
      EXPECT_EQ(got.max_load, want.max_load);
      EXPECT_EQ(got.empty_bins, want.empty_bins);
      EXPECT_EQ(got.departures, want.departures);
      EXPECT_EQ(got.drops, want.drops);
      EXPECT_EQ(got.max_weighted_load, want.max_weighted_load);
      EXPECT_EQ(got.total_balls, want.total_balls);
      EXPECT_EQ(got.total_weight, want.total_weight);
      EXPECT_EQ(pipelined.loads(), oracle.loads());
      EXPECT_EQ(pipelined.dropped_balls(), oracle.dropped_balls());
      EXPECT_EQ(pipelined.dropped_weight(), oracle.dropped_weight());
      ASSERT_NO_THROW(pipelined.check_invariants());
    }
  }
}

// --- once-per-block statistics ----------------------------------------------
//
// A sharded run(k) rescans its shards for the round statistics on the
// block's last round only.  These cases pin that every family still
// reports the stats of the round it stopped on: after each of three
// consecutive run(k) blocks, max_load()/empty_bins() (and the
// family-specific stats) equal the sequential counter-stream sibling's
// after the same number of step() calls, and check_invariants() agrees.

constexpr std::uint64_t kBlockLengths[] = {1, 2, 3, 7};
constexpr unsigned kBlockThreads[] = {1, 2};

/// Runs three run(k) blocks of make_sharded(options) against
/// make_oracle() stepped k times per block, for every k in
/// kBlockLengths and threads in kBlockThreads; `extra(sharded, oracle)`
/// adds the family's own comparisons.
template <typename MakeSharded, typename MakeOracle, typename Extra>
void expect_block_end_stats(MakeSharded make_sharded, MakeOracle make_oracle,
                            Extra extra) {
  for (const std::uint64_t k : kBlockLengths) {
    for (const unsigned threads : kBlockThreads) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " threads=" << threads);
      auto oracle = make_oracle();
      auto sharded =
          make_sharded(ShardedOptions{.threads = threads, .shard_size = 256});
      for (int block = 0; block < 3; ++block) {
        sharded.run(k);
        for (std::uint64_t r = 0; r < k; ++r) oracle.step();
        EXPECT_EQ(sharded.max_load(), oracle.max_load()) << "block " << block;
        EXPECT_EQ(sharded.empty_bins(), oracle.empty_bins())
            << "block " << block;
        ASSERT_NO_THROW(sharded.check_invariants());
        extra(sharded, oracle);
      }
    }
  }
}

constexpr auto kNoExtra = [](const auto&, const auto&) {};

TEST(BlockEndStats, Load) {
  expect_block_end_stats(
      [](ShardedOptions o) {
        return ShardedRepeatedBallsProcess(start_config(InitialConfig::kAllInOne),
                                           kSeed, o);
      },
      [] {
        return SequentialCounterProcess(start_config(InitialConfig::kAllInOne),
                                        kSeed);
      },
      kNoExtra);
}

TEST(BlockEndStats, TetrisIncludingFirstEmptyRounds) {
  expect_block_end_stats(
      [](ShardedOptions o) {
        return ShardedTetrisProcess(start_config(InitialConfig::kRandom), kSeed,
                                    0, o);
      },
      [] {
        return SequentialCounterTetrisProcess(
            start_config(InitialConfig::kRandom), kSeed);
      },
      [](const auto& sharded, const auto& oracle) {
        EXPECT_EQ(sharded.all_emptied_once(), oracle.all_emptied_once());
        for (std::uint32_t u = 0; u < kN; ++u) {
          ASSERT_EQ(sharded.first_empty_round(u), oracle.first_empty_round(u))
              << "bin " << u;
        }
      });
}

TEST(BlockEndStats, DChoices) {
  constexpr std::uint32_t kD = 2;
  expect_block_end_stats(
      [](ShardedOptions o) {
        return ShardedDChoicesProcess(start_config(InitialConfig::kAllInOne),
                                      kD, kSeed, o);
      },
      [] {
        return SequentialCounterDChoicesProcess(
            start_config(InitialConfig::kAllInOne), kD, kSeed);
      },
      kNoExtra);
}

TEST(BlockEndStats, Leaky) {
  constexpr double kLambda = 0.6;
  expect_block_end_stats(
      [](ShardedOptions o) {
        return ShardedLeakyBinsProcess(start_config(), kLambda, kSeed, o);
      },
      [] { return SequentialCounterLeakyBinsProcess(start_config(), kLambda,
                                                    kSeed); },
      kNoExtra);
}

TEST(BlockEndStats, Token) {
  expect_block_end_stats(
      [](ShardedOptions o) {
        return ShardedTokenProcess(kN, identity_placement(kN), kSeed, o);
      },
      [] {
        return SequentialCounterTokenProcess(kN, identity_placement(kN), kSeed);
      },
      kNoExtra);
}

TEST(BlockEndStats, MixedIncludingWeightedLoadAndUtilization) {
  const MixedSpec spec = make_mixed_spec(1024, 8.0, "zipf", "capped");
  expect_block_end_stats(
      [&spec](ShardedOptions o) { return ShardedMixedProcess(spec, kSeed, o); },
      [&spec] { return SequentialCounterMixedProcess(spec, kSeed); },
      [](const auto& sharded, const auto& oracle) {
        EXPECT_EQ(sharded.max_weighted_load(), oracle.max_weighted_load());
        EXPECT_EQ(sharded.max_utilization(), oracle.max_utilization());
      });
}

// --- lazy second buffer set ------------------------------------------------
//
// The odd-parity scatter buffer set is allocated only for a block of
// >= 2 rounds on a team of >= 2 workers; step(), run(1), threads = 1
// and a restored process keep the single set.  resident_state_bytes()
// counts buffer capacity, so identically seeded processes pin the rule:
// equal where the second set must not exist, strictly larger where it
// must.

/// Expects the lazy-second-set rule for `make(threads)`, a factory of
/// identically seeded processes with resident_state_bytes().
template <typename Make>
void expect_lazy_second_set(Make make) {
  constexpr std::uint64_t kSteps = 4;
  auto stepped_t1 = make(1u);
  auto run_t1 = make(1u);
  auto stepped_t2 = make(2u);
  auto run_t2 = make(2u);
  for (std::uint64_t r = 0; r < kSteps; ++r) {
    stepped_t1.step();
    stepped_t2.step();
  }
  run_t1.run(kSteps);
  run_t2.run(kSteps);
  EXPECT_EQ(run_t1.resident_state_bytes(), stepped_t1.resident_state_bytes());
  EXPECT_EQ(stepped_t2.resident_state_bytes(),
            stepped_t1.resident_state_bytes());
  EXPECT_GT(run_t2.resident_state_bytes(), stepped_t2.resident_state_bytes());
}

TEST(PipelinedBuffers, LoadAllocatesSecondSetOnlyForTeamBlocks) {
  expect_lazy_second_set([](unsigned threads) {
    return ShardedRepeatedBallsProcess(
        start_config(), kSeed, {.threads = threads, .shard_size = 256});
  });
}

TEST(PipelinedBuffers, TokenAllocatesSecondSetOnlyForTeamBlocks) {
  expect_lazy_second_set([](unsigned threads) {
    return ShardedTokenProcess(kN, identity_placement(kN), kSeed,
                               {.threads = threads, .shard_size = 256});
  });
}

TEST(PipelinedBuffers, MixedAllocatesSecondSetOnlyForTeamBlocks) {
  const MixedSpec spec = make_mixed_spec(1024, 8.0, "zipf", "capped");
  expect_lazy_second_set([&spec](unsigned threads) {
    return ShardedMixedProcess(spec, kSeed,
                               {.threads = threads, .shard_size = 256});
  });
}

}  // namespace
}  // namespace rbb::par
