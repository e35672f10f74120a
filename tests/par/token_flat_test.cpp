// Flat-storage parity suite: the implicit-FIFO token core
// (core/kernel/token_store.hpp) against a retained naive reference
// (token_reference.hpp), across QueuePolicy {FIFO, LIFO, random} x
// backends {seq xoshiro, seq-counter, sharded 1/2/8 workers x shard
// sizes {64, 256, 1024}} -- including cover-time visit tracking,
// mid-run reassign() rebuilds, and the check_invariants / snapshot
// inspection hooks.  The seq-xoshiro kernel is also pinned on general
// graphs (cycle, torus, random 3-regular) with delay histograms, both
// against the reference and against golden CRCs recorded from the
// per-bin-queue token process it replaced.
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernel/token_kernel.hpp"
#include "core/queue_policy.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "par/sharded_token_process.hpp"
#include "support/serial.hpp"
#include "token_reference.hpp"

namespace rbb::par {
namespace {

using kernel::SequentialTokenProcess;
using kernel::TokenOptions;
using testing::ReferenceTokenProcess;

constexpr std::uint32_t kN = 512;
constexpr std::uint64_t kSeed = 0xfeedfaceULL;
constexpr std::uint64_t kRounds = 32;

const QueuePolicy kPolicies[] = {QueuePolicy::kFifo, QueuePolicy::kLifo,
                                 QueuePolicy::kRandom};

/// Skewed start: four tokens per occupied bin, so every policy has
/// real intra-bin ordering decisions from round one.
std::vector<std::uint32_t> skewed_placement(std::uint32_t n) {
  std::vector<std::uint32_t> placement(n);
  for (std::uint32_t i = 0; i < n; ++i) placement[i] = i % (n / 4);
  return placement;
}

/// Asserts full observable state equality: token positions, progress,
/// every queue's content in arrival order, and (when tracked) the delay
/// histogram.
template <typename Core, typename Ref>
void expect_same_state(const Core& core, const Ref& ref,
                       const char* what, bool delays = false) {
  ASSERT_EQ(core.round(), ref.round()) << what;
  if (delays) {
    ASSERT_EQ(core.delay_histogram().counts(),
              ref.delay_histogram().counts())
        << what << " round " << core.round();
    ASSERT_EQ(core.delay_histogram().total(), ref.delay_histogram().total())
        << what;
  }
  for (std::uint32_t i = 0; i < core.token_count(); ++i) {
    ASSERT_EQ(core.token_bin(i), ref.token_bin(i))
        << what << " token " << i << " round " << core.round();
    ASSERT_EQ(core.progress(i), ref.progress(i))
        << what << " token " << i << " round " << core.round();
  }
  for (std::uint32_t u = 0; u < core.bin_count(); ++u) {
    ASSERT_EQ(core.queue_snapshot(u), ref.queue(u))
        << what << " bin " << u << " round " << core.round();
  }
}

TEST(FlatTokenParity, SeqXoshiroMatchesReferenceEveryPolicy) {
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = false, .policy = policy};
    SequentialTokenProcess core(kN, skewed_placement(kN), Rng(kSeed),
                                options);
    ReferenceTokenProcess<kernel::SequentialStream> ref(
        kN, skewed_placement(kN), kernel::SequentialStream(Rng(kSeed)),
        options);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      core.step();
      ref.step();
      expect_same_state(core, ref, to_string(policy));
    }
    ASSERT_NO_THROW(core.check_invariants());
  }
}

TEST(FlatTokenParity, SeqCounterMatchesReferenceEveryPolicy) {
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = false, .policy = policy};
    SequentialCounterTokenProcess core(kN, skewed_placement(kN), kSeed,
                                       options);
    ReferenceTokenProcess<kernel::CounterStream> ref(
        kN, skewed_placement(kN), kernel::CounterStream(kSeed), options);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      core.step();
      ref.step();
      expect_same_state(core, ref, to_string(policy));
    }
    ASSERT_NO_THROW(core.check_invariants());
  }
}

TEST(FlatTokenParity, ShardedMatchesReferenceAcrossGrid) {
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = false, .policy = policy};
    ReferenceTokenProcess<kernel::CounterStream> ref(
        kN, skewed_placement(kN), kernel::CounterStream(kSeed), options);
    ref.run(kRounds);
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const std::uint32_t shard : {64u, 256u, 1024u}) {
        ShardedTokenProcess core(kN, skewed_placement(kN), kSeed,
                                 ShardedOptions{threads, shard}, options);
        core.run(kRounds);
        expect_same_state(core, ref, to_string(policy));
        ASSERT_NO_THROW(core.check_invariants());
      }
    }
  }
}

TEST(FlatTokenParity, ReassignMidRunMatchesReference) {
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = true, .policy = policy};
    ShardedTokenProcess core(kN, skewed_placement(kN), kSeed,
                             ShardedOptions{2, 128}, options);
    ReferenceTokenProcess<kernel::CounterStream> ref(
        kN, skewed_placement(kN), kernel::CounterStream(kSeed), options);
    core.run(10);
    ref.run(10);
    const std::vector<std::uint32_t> pile(kN, 3u);  // adversarial pile-up
    core.reassign(pile);
    ref.reassign(pile);
    for (std::uint64_t r = 0; r < 12; ++r) {
      core.step();
      ref.step();
      expect_same_state(core, ref, to_string(policy));
    }
    for (std::uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(core.visited_count(i), ref.visited_count(i)) << "token "
                                                             << i;
    }
    ASSERT_NO_THROW(core.check_invariants());
  }
}

TEST(FlatTokenParity, CoverTimeMatchesReferenceEveryPolicy) {
  constexpr std::uint32_t kSmall = 48;
  std::vector<std::uint32_t> placement(kSmall);
  for (std::uint32_t i = 0; i < kSmall; ++i) placement[i] = i;
  const std::uint64_t cap = 64ull * kSmall * kSmall;
  for (const QueuePolicy policy : kPolicies) {
    const TokenOptions options{.track_visits = true, .policy = policy};
    ShardedTokenProcess core(kSmall, placement, kSeed,
                             ShardedOptions{2, 64}, options);
    ReferenceTokenProcess<kernel::CounterStream> ref(
        kSmall, placement, kernel::CounterStream(kSeed), options);
    const auto core_cover = core.run_until_covered(cap);
    const auto ref_cover = ref.run_until_covered(cap);
    ASSERT_TRUE(core_cover.has_value()) << to_string(policy);
    ASSERT_TRUE(ref_cover.has_value()) << to_string(policy);
    EXPECT_EQ(*core_cover, *ref_cover) << to_string(policy);
    for (std::uint32_t i = 0; i < kSmall; ++i) {
      ASSERT_EQ(core.visited_count(i), ref.visited_count(i));
      ASSERT_EQ(core.cover_round(i), ref.cover_round(i));
    }
  }
}

/// CRC32 of token_bin || progress || delay-histogram buckets.
std::uint32_t token_state_crc(const SequentialTokenProcess& p) {
  serial::ByteWriter w;
  for (std::uint32_t i = 0; i < p.token_count(); ++i) w.u32(p.token_bin(i));
  for (std::uint32_t i = 0; i < p.token_count(); ++i) w.u64(p.progress(i));
  for (const std::uint64_t c : p.delay_histogram().counts()) w.u64(c);
  return serial::crc32(w.str());
}

TEST(FlatTokenParity, SeqXoshiroReproducesLegacyGoldenCrcs) {
  // Golden values recorded from the per-bin-queue TokenProcess (deleted
  // since) with the same setup: 64 rounds, skewed start, delays on.
  // FIFO and LIFO make no pop draws, so the destination draws -- uniform
  // bin, or uniform CSR neighbor on a graph -- are the whole trajectory.
  // Random is exempt: the legacy queue swap-removed where the flat store
  // removes the k-th in arrival order.
  const Graph cycle = make_cycle(kN);
  Rng graph_rng(kSeed, 0x6a);
  const Graph regular = make_random_regular(kN, 3, graph_rng);
  struct Golden {
    const Graph* graph;
    QueuePolicy policy;
    std::uint32_t crc;
  };
  const Golden goldens[] = {
      {nullptr, QueuePolicy::kFifo, 0x6fa533f0u},
      {nullptr, QueuePolicy::kLifo, 0xec578cbdu},
      {&cycle, QueuePolicy::kFifo, 0x06e00946u},
      {&cycle, QueuePolicy::kLifo, 0xf72d30d5u},
      {&regular, QueuePolicy::kFifo, 0xb629a43bu},
      {&regular, QueuePolicy::kLifo, 0x84458e87u},
  };
  for (const Golden& g : goldens) {
    SequentialTokenProcess p(kN, skewed_placement(kN), Rng(kSeed),
                             TokenOptions{.policy = g.policy,
                                          .graph = g.graph,
                                          .track_delays = true});
    p.run(64);
    EXPECT_EQ(token_state_crc(p), g.crc)
        << to_string(g.policy) << " on "
        << (g.graph == nullptr ? "the complete graph"
                               : g.graph == &cycle ? "the cycle"
                                                   : "the 3-regular graph");
    ASSERT_NO_THROW(p.check_invariants());
  }
}

TEST(FlatTokenParity, SeqXoshiroMatchesReferenceOnGraphsWithDelays) {
  Rng graph_rng(kSeed, 0x3e);
  const Graph graphs[] = {make_cycle(kN), make_torus(16, kN / 16),
                          make_random_regular(kN, 3, graph_rng)};
  const std::vector<std::uint32_t> pile(kN, 5u);  // adversarial pile-up
  for (const Graph& graph : graphs) {
    for (const QueuePolicy policy : kPolicies) {
      for (const bool delays : {false, true}) {
        const TokenOptions options{.track_visits = true,
                                   .policy = policy,
                                   .graph = &graph,
                                   .track_delays = delays};
        SequentialTokenProcess core(kN, skewed_placement(kN), Rng(kSeed),
                                    options);
        ReferenceTokenProcess<kernel::SequentialStream> ref(
            kN, skewed_placement(kN), kernel::SequentialStream(Rng(kSeed)),
            options);
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          if (r == kRounds / 2) {
            core.reassign(pile);
            ref.reassign(pile);
            expect_same_state(core, ref, to_string(policy), delays);
          }
          core.step();
          ref.step();
          expect_same_state(core, ref, to_string(policy), delays);
        }
        for (std::uint32_t i = 0; i < kN; ++i) {
          ASSERT_EQ(core.visited_count(i), ref.visited_count(i))
              << to_string(policy) << " token " << i;
        }
        ASSERT_NO_THROW(core.check_invariants());
      }
    }
  }
}

TEST(FlatTokenParity, SnapshotOrderIsArrivalOrderEveryPolicy) {
  // All tokens in bin 0: the initial snapshot must read 0..m-1 (arrival
  // = token-id order) for every policy orientation, including the
  // LIFO-oriented list, which stores newest-first internally.
  for (const QueuePolicy policy : kPolicies) {
    SequentialCounterTokenProcess proc(
        kN, std::vector<std::uint32_t>(kN, 0u), kSeed,
        TokenOptions{.track_visits = false, .policy = policy});
    const std::vector<std::uint32_t> snap = proc.queue_snapshot(0);
    ASSERT_EQ(snap.size(), kN) << to_string(policy);
    for (std::uint32_t i = 0; i < kN; ++i) {
      ASSERT_EQ(snap[i], i) << to_string(policy);
    }
    // One round: FIFO releases token 0, LIFO token kN-1.
    proc.step();
    if (policy == QueuePolicy::kFifo) {
      EXPECT_EQ(proc.progress(0), 1u);
      EXPECT_EQ(proc.queue_snapshot(0).front(), 1u);
    } else if (policy == QueuePolicy::kLifo) {
      EXPECT_EQ(proc.progress(kN - 1), 1u);
    }
    ASSERT_NO_THROW(proc.check_invariants());
  }
}

TEST(FlatTokenParity, RejectsBadConstructionAndReassign) {
  const TokenOptions options{.track_visits = false,
                             .policy = QueuePolicy::kRandom};
  EXPECT_THROW(SequentialTokenProcess(0, {0u}, Rng(1), options),
               std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(8, {}, Rng(1), options),
               std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(8, {8u}, Rng(1), options),
               std::invalid_argument);
  SequentialTokenProcess proc(8, {1u, 1u, 2u}, Rng(1), options);
  EXPECT_THROW(proc.reassign({0u}), std::invalid_argument);
  EXPECT_THROW(proc.reassign({0u, 1u, 8u}), std::invalid_argument);

  // Graph checks: the graph must have one node per bin and no isolated
  // node.
  const Graph cycle = make_cycle(8);
  const Graph small = make_cycle(6);
  const Graph isolated(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  EXPECT_THROW(SequentialTokenProcess(8, {0u}, Rng(1),
                                      TokenOptions{.graph = &small}),
               std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(8, {0u}, Rng(1),
                                      TokenOptions{.graph = &isolated}),
               std::invalid_argument);
  EXPECT_NO_THROW(SequentialTokenProcess(
      8, {0u}, Rng(1), TokenOptions{.graph = &cycle, .track_delays = true}));

  // The counter-stream and sharded instantiations reject graph and
  // track_delays, naming the option.
  const auto expect_rejects = [](auto&& make, const std::string& option) {
    try {
      make();
      ADD_FAILURE() << "accepted " << option;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
          << e.what();
    }
  };
  const TokenOptions with_graph{.graph = &cycle};
  const TokenOptions with_delays{.track_delays = true};
  expect_rejects(
      [&] { SequentialCounterTokenProcess(8, {0u}, 1, with_graph); },
      "TokenOptions::graph");
  expect_rejects(
      [&] { SequentialCounterTokenProcess(8, {0u}, 1, with_delays); },
      "TokenOptions::track_delays");
  expect_rejects(
      [&] {
        ShardedTokenProcess(8, {0u}, 1, ShardedOptions{2, 4}, with_graph);
      },
      "TokenOptions::graph");
  expect_rejects(
      [&] {
        ShardedTokenProcess(8, {0u}, 1, ShardedOptions{2, 4}, with_delays);
      },
      "TokenOptions::track_delays");
}

static_assert(SimProcess<kernel::SequentialTokenProcess>,
              "the flat sequential token kernel must satisfy the engine "
              "concept");

TEST(FlatTokenParity, EngineDrivesTheSeqKernel) {
  Engine engine(SequentialTokenProcess(
      kN, skewed_placement(kN), Rng(kSeed),
      TokenOptions{.track_visits = false, .policy = QueuePolicy::kRandom}));
  MinEmptyFraction memp;
  const EngineResult r = engine.run_rounds(8, memp);
  EXPECT_EQ(r.rounds, 8u);
  EXPECT_GT(memp.min_fraction, 0.0);
  EXPECT_EQ(engine.process().round(), 8u);
}

}  // namespace
}  // namespace rbb::par
