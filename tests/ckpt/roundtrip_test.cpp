// Snapshot round-trip property suite (DESIGN.md Sect. 7): for every
// kernel family, a snapshot taken mid-run and restored -- into the
// sequential counter core or into the sharded core at any worker count
// and shard size -- continues BIT-IDENTICALLY: the restored process's
// snapshot at the target round equals the uninterrupted oracle's, byte
// for byte.  This is the strongest possible resume guarantee; summary
// statistics (max load, empty bins) follow a fortiori.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/mixed_config.hpp"
#include "core/queue_policy.hpp"
#include "par/sharded_mixed.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"
#include "support/rng.hpp"
#include "support/serial.hpp"

namespace rbb {
namespace {

constexpr std::uint32_t kBins = 300;
constexpr std::uint64_t kSeed = 1234;
constexpr std::uint64_t kSplitRound = 17;
constexpr std::uint64_t kTargetRound = 48;

template <typename Proc>
std::string snapshot_of(const Proc& proc) {
  serial::ByteWriter w;
  proc.snapshot(w);
  return w.take();
}

/// The property: run a sequential oracle to the target; snapshot a
/// twin at the split round; restore that snapshot into fresh processes
/// (sequential, and sharded at 1/2/8 workers x shard sizes
/// 64/256/1024); continue each to the target and demand byte equality
/// with the oracle's snapshot.
template <typename MakeSeq, typename MakeSharded>
void ExpectRestoreBitIdentical(MakeSeq make_seq, MakeSharded make_sharded) {
  auto oracle = make_seq();
  oracle.run(kTargetRound);
  const std::string want = snapshot_of(oracle);

  auto twin = make_seq();
  twin.run(kSplitRound);
  const std::string mid = snapshot_of(twin);

  {
    auto p = make_seq();
    serial::ByteReader r(mid);
    p.restore(r);
    ASSERT_TRUE(r.done());
    ASSERT_EQ(p.round(), kSplitRound);
    p.run(kTargetRound - kSplitRound);
    EXPECT_EQ(snapshot_of(p), want) << "sequential restore diverged";
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint32_t shard : {64u, 256u, 1024u}) {
      auto p = make_sharded(
          par::ShardedOptions{.threads = threads, .shard_size = shard});
      serial::ByteReader r(mid);
      p.restore(r);
      ASSERT_TRUE(r.done());
      ASSERT_EQ(p.round(), kSplitRound);
      p.run(kTargetRound - kSplitRound);
      EXPECT_EQ(snapshot_of(p), want)
          << "sharded restore diverged at threads=" << threads
          << " shard_size=" << shard;
    }
  }
}

LoadConfig start_config() {
  Rng rng(kSeed);
  return make_config(InitialConfig::kAllInOne, kBins, kBins, rng);
}

TEST(CkptRoundtrip, LoadBitIdenticalAcrossBackends) {
  ExpectRestoreBitIdentical(
      [] { return par::SequentialCounterProcess(start_config(), kSeed); },
      [](par::ShardedOptions o) {
        return par::ShardedRepeatedBallsProcess(start_config(), kSeed, o);
      });
}

TEST(CkptRoundtrip, TetrisBitIdenticalAcrossBackends) {
  ExpectRestoreBitIdentical(
      [] {
        return par::SequentialCounterTetrisProcess(start_config(), kSeed);
      },
      [](par::ShardedOptions o) {
        return par::ShardedTetrisProcess(start_config(), kSeed, 0, o);
      });
}

TEST(CkptRoundtrip, DChoicesBitIdenticalAcrossBackends) {
  ExpectRestoreBitIdentical(
      [] {
        return par::SequentialCounterDChoicesProcess(start_config(), 2, kSeed);
      },
      [](par::ShardedOptions o) {
        return par::ShardedDChoicesProcess(start_config(), 2, kSeed, o);
      });
}

TEST(CkptRoundtrip, LeakyBitIdenticalAcrossBackends) {
  ExpectRestoreBitIdentical(
      [] {
        return par::SequentialCounterLeakyBinsProcess(start_config(), 0.5,
                                                      kSeed);
      },
      [](par::ShardedOptions o) {
        return par::ShardedLeakyBinsProcess(start_config(), 0.5, kSeed, o);
      });
}

TEST(CkptRoundtrip, TokenBitIdenticalAcrossBackendsAllPolicies) {
  for (const QueuePolicy policy :
       {QueuePolicy::kFifo, QueuePolicy::kLifo, QueuePolicy::kRandom}) {
    SCOPED_TRACE(to_string(policy));
    kernel::TokenOptions options;
    options.policy = policy;
    ExpectRestoreBitIdentical(
        [options] {
          return par::SequentialCounterTokenProcess(
              kBins, identity_placement(kBins), kSeed, options);
        },
        [options](par::ShardedOptions o) {
          return par::ShardedTokenProcess(kBins, identity_placement(kBins),
                                          kSeed, o, options);
        });
  }
}

TEST(CkptRoundtrip, TokenVisitTrackingSurvivesRestore) {
  kernel::TokenOptions options;
  options.track_visits = true;
  ExpectRestoreBitIdentical(
      [options] {
        return par::SequentialCounterTokenProcess(
            kBins, identity_placement(kBins), kSeed, options);
      },
      [options](par::ShardedOptions o) {
        return par::ShardedTokenProcess(kBins, identity_placement(kBins),
                                        kSeed, o, options);
      });
}

TEST(CkptRoundtrip, MixedBitIdenticalAcrossBackends) {
  for (const char* bins : {"uniform", "two-speed", "stalled-tenth", "capped"}) {
    SCOPED_TRACE(bins);
    const MixedSpec spec = make_mixed_spec(kBins, 2.0, "bimodal", bins);
    ExpectRestoreBitIdentical(
        [&spec] { return par::SequentialCounterMixedProcess(spec, kSeed); },
        [&spec](par::ShardedOptions o) {
          return par::ShardedMixedProcess(spec, kSeed, o);
        });
  }
}

// Restore must reject a payload whose shape disagrees with the
// constructed process (a CRC-valid checkpoint of a different run).
TEST(CkptRoundtrip, RestoreRejectsMismatchedShape) {
  par::SequentialCounterProcess small(
      [] {
        Rng rng(kSeed);
        return make_config(InitialConfig::kOnePerBin, 64, 64, rng);
      }(),
      kSeed);
  small.run(5);
  const std::string mid = snapshot_of(small);

  par::SequentialCounterProcess big(start_config(), kSeed);
  serial::ByteReader r(mid);
  EXPECT_THROW(big.restore(r), std::exception);
}

// Pipelined continuation: a multi-round sharded run overlaps adjacent
// rounds on double-buffered scatter buffers; a restored process must
// feed it identically.  Named CkptPipelined.* so the TSan CI job can
// select it alongside the other pipelined suites.
TEST(CkptPipelined, RestoredShardedRunMatchesOracle) {
  par::ShardedRepeatedBallsProcess oracle(
      start_config(), kSeed,
      par::ShardedOptions{.threads = 4, .shard_size = 64});
  oracle.run(200);
  const std::string want = snapshot_of(oracle);

  par::ShardedRepeatedBallsProcess twin(
      start_config(), kSeed,
      par::ShardedOptions{.threads = 4, .shard_size = 64});
  twin.run(73);
  const std::string mid = snapshot_of(twin);

  par::ShardedRepeatedBallsProcess resumed(
      start_config(), kSeed,
      par::ShardedOptions{.threads = 4, .shard_size = 64});
  serial::ByteReader r(mid);
  resumed.restore(r);
  ASSERT_TRUE(r.done());
  resumed.run(200 - 73);  // a multi-round block: rounds overlap
  EXPECT_EQ(snapshot_of(resumed), want);
}

TEST(CkptPipelined, SnapshotAfterPipelinedRunRestoresCleanly) {
  par::ShardedMixedProcess proc(
      make_mixed_spec(kBins, 2.0, "zipf", "capped"), kSeed,
      par::ShardedOptions{.threads = 4, .shard_size = 64});
  proc.run(120);
  const std::string mid = snapshot_of(proc);

  par::SequentialCounterMixedProcess resumed(
      make_mixed_spec(kBins, 2.0, "zipf", "capped"), kSeed);
  serial::ByteReader r(mid);
  resumed.restore(r);
  ASSERT_TRUE(r.done());
  resumed.run(80);
  ASSERT_NO_THROW(resumed.check_invariants());

  proc.run(80);
  EXPECT_EQ(snapshot_of(proc), snapshot_of(resumed));
}

}  // namespace
}  // namespace rbb
