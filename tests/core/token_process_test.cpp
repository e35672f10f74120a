// Tests for the sequential token process (kernel::SequentialTokenProcess):
// queue policies, token conservation, visit/cover tracking, progress
// accounting, reassignment, general graphs and delay histograms -- plus
// the queue semantics of the flat store underneath it.
#include "core/kernel/token_kernel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>

#include "core/kernel/token_store.hpp"
#include "core/queue_policy.hpp"
#include "graph/graph.hpp"

namespace rbb {
namespace {

using kernel::FlatTokenStore;
using kernel::SequentialTokenProcess;
using kernel::TokenOptions;

std::vector<std::uint32_t> one_per_bin(std::uint32_t n) {
  std::vector<std::uint32_t> pos(n);
  std::iota(pos.begin(), pos.end(), 0u);
  return pos;
}

/// FIFO with visit tracking.
TokenOptions fifo_options() {
  return TokenOptions{.track_visits = true, .policy = QueuePolicy::kFifo};
}

/// FIFO with delay tracking and no visit bitsets.
TokenOptions delay_options(QueuePolicy policy = QueuePolicy::kFifo) {
  return TokenOptions{.policy = policy, .track_delays = true};
}

TEST(FlatTokenStore, FifoOrder) {
  FlatTokenStore store(1, 4, QueuePolicy::kFifo);
  store.push(0, 0);
  store.push(0, 1);
  store.push(0, 2);
  EXPECT_EQ(store.count(0), 3u);
  EXPECT_EQ(store.pop_front(0), 0u);
  EXPECT_EQ(store.pop_front(0), 1u);
  store.push(0, 3);
  EXPECT_EQ(store.pop_front(0), 2u);
  EXPECT_EQ(store.pop_front(0), 3u);
  EXPECT_TRUE(store.empty(0));
}

TEST(FlatTokenStore, LifoOrder) {
  FlatTokenStore store(1, 3, QueuePolicy::kLifo);
  store.push(0, 0);
  store.push(0, 1);
  store.push(0, 2);
  EXPECT_EQ(store.pop_front(0), 2u);
  EXPECT_EQ(store.pop_front(0), 1u);
  EXPECT_EQ(store.pop_front(0), 0u);
  EXPECT_TRUE(store.empty(0));
}

TEST(FlatTokenStore, RandomPopReturnsMember) {
  FlatTokenStore store(1, 10, QueuePolicy::kRandom);
  Rng rng(3);
  for (std::uint32_t i = 0; i < 10; ++i) store.push(0, i);
  std::set<std::uint32_t> seen;
  while (!store.empty(0)) {
    const std::uint32_t t = store.pop_at(
        0, static_cast<std::uint32_t>(rng.below(store.count(0))));
    EXPECT_TRUE(seen.insert(t).second);  // no duplicates
    EXPECT_LT(t, 10u);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(FlatTokenStore, SnapshotIsArrivalOrder) {
  FlatTokenStore store(1, 8, QueuePolicy::kFifo);
  for (std::uint32_t t = 0; t < 8; ++t) store.push(0, t);
  store.pop_front(0);
  store.pop_front(0);
  EXPECT_EQ(store.snapshot(0),
            (std::vector<std::uint32_t>{2, 3, 4, 5, 6, 7}));
}

TEST(QueuePolicyNames, RoundTrip) {
  for (const auto p :
       {QueuePolicy::kFifo, QueuePolicy::kLifo, QueuePolicy::kRandom}) {
    EXPECT_EQ(queue_policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW((void)queue_policy_from_string("??"), std::invalid_argument);
}

TEST(SequentialTokenProcess, RejectsBadConstruction) {
  EXPECT_THROW(SequentialTokenProcess(0, {0}, Rng(1), fifo_options()),
               std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(4, {}, Rng(1), fifo_options()),
               std::invalid_argument);
  EXPECT_THROW(SequentialTokenProcess(4, {4}, Rng(1), fifo_options()),
               std::invalid_argument);
}

TEST(SequentialTokenProcess, InitialPlacementCountsAsVisit) {
  SequentialTokenProcess proc(4, {0, 1, 2, 3}, Rng(1), fifo_options());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(proc.visited_count(i), 1u);
    EXPECT_EQ(proc.token_bin(i), i);
    EXPECT_EQ(proc.progress(i), 0u);
  }
  EXPECT_FALSE(proc.all_covered());
}

TEST(SequentialTokenProcess, TokensConservedAcrossRounds) {
  SequentialTokenProcess proc(16, one_per_bin(16), Rng(2), fifo_options());
  for (int t = 0; t < 200; ++t) {
    proc.step();
    proc.check_invariants();
  }
  std::uint32_t total = 0;
  for (std::uint32_t u = 0; u < 16; ++u) total += proc.load(u);
  EXPECT_EQ(total, 16u);
}

TEST(SequentialTokenProcess, ProgressSumsToDepartures) {
  // Total progress after T rounds = sum over rounds of #non-empty bins;
  // every round moves at least 1 and at most n tokens.
  SequentialTokenProcess proc(8, one_per_bin(8), Rng(3), fifo_options());
  proc.run(50);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < 8; ++i) total += proc.progress(i);
  EXPECT_GE(total, 50u);
  EXPECT_LE(total, 50u * 8u);
}

TEST(SequentialTokenProcess, SingleTokenWalksEveryRound) {
  SequentialTokenProcess proc(8, {3}, Rng(4), fifo_options());
  proc.run(100);
  EXPECT_EQ(proc.progress(0), 100u);
  EXPECT_EQ(proc.min_progress(), 100u);
}

TEST(SequentialTokenProcess, CoverageDetectedOnCompleteGraph) {
  // n = 4, plenty of rounds: every token covers all bins quickly.
  SequentialTokenProcess proc(4, one_per_bin(4), Rng(5), fifo_options());
  const auto cover = proc.run_until_covered(10000);
  ASSERT_TRUE(cover.has_value());
  EXPECT_TRUE(proc.all_covered());
  EXPECT_EQ(proc.global_cover_time(), *cover);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(proc.visited_count(i), 4u);
    EXPECT_LE(proc.cover_round(i), *cover);
  }
}

TEST(SequentialTokenProcess, RunUntilCoveredRespectsCap) {
  SequentialTokenProcess proc(64, one_per_bin(64), Rng(6), fifo_options());
  EXPECT_FALSE(proc.run_until_covered(2).has_value());
  EXPECT_EQ(proc.round(), 2u);
}

TEST(SequentialTokenProcess, VisitTrackingDisabledThrows) {
  SequentialTokenProcess proc(4, one_per_bin(4), Rng(7), TokenOptions{});
  proc.run(10);  // progress still works
  EXPECT_GT(proc.progress(0), 0u);
  EXPECT_THROW((void)proc.visited_count(0), std::logic_error);
  EXPECT_THROW((void)proc.run_until_covered(10), std::logic_error);
}

TEST(SequentialTokenProcess, ReassignMovesEveryToken) {
  SequentialTokenProcess proc(8, one_per_bin(8), Rng(8), fifo_options());
  proc.run(5);
  std::vector<std::uint32_t> all_to_three(8, 3);
  proc.reassign(all_to_three);
  EXPECT_EQ(proc.load(3), 8u);
  EXPECT_EQ(proc.max_load(), 8u);
  EXPECT_EQ(proc.empty_bins(), 7u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(proc.token_bin(i), 3u);
  proc.check_invariants();
}

TEST(SequentialTokenProcess, ReassignValidation) {
  SequentialTokenProcess proc(4, one_per_bin(4), Rng(9), fifo_options());
  EXPECT_THROW(proc.reassign({0, 1}), std::invalid_argument);
  EXPECT_THROW(proc.reassign({0, 1, 2, 9}), std::invalid_argument);
}

TEST(SequentialTokenProcess, GraphModeKeepsTokensOnEdges) {
  const Graph g = make_cycle(8);
  TokenOptions o = fifo_options();
  o.graph = &g;
  SequentialTokenProcess proc(8, one_per_bin(8), Rng(10), o);
  for (int t = 0; t < 50; ++t) {
    std::vector<std::uint32_t> before(8);
    for (std::uint32_t i = 0; i < 8; ++i) before[i] = proc.token_bin(i);
    proc.step();
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::uint32_t now = proc.token_bin(i);
      if (now != before[i]) {
        ASSERT_TRUE(g.has_edge(before[i], now))
            << "token " << i << " jumped " << before[i] << "->" << now;
      }
    }
  }
}

TEST(SequentialTokenProcess, FifoReleasesOldestToken) {
  // Two tokens in one bin: FIFO releases the lower id first (queue order
  // is id order at construction).
  SequentialTokenProcess proc(2, {0, 0}, Rng(11), fifo_options());
  proc.step();
  EXPECT_EQ(proc.progress(0), 1u);
  EXPECT_EQ(proc.progress(1), 0u);
}

TEST(SequentialTokenProcess, LifoReleasesNewestToken) {
  TokenOptions o = fifo_options();
  o.policy = QueuePolicy::kLifo;
  SequentialTokenProcess proc(2, {0, 0}, Rng(12), o);
  proc.step();
  EXPECT_EQ(proc.progress(0), 0u);
  EXPECT_EQ(proc.progress(1), 1u);
}

TEST(SequentialTokenProcessDelays, DisabledByDefault) {
  SequentialTokenProcess proc(4, one_per_bin(4), Rng(20), fifo_options());
  EXPECT_THROW((void)proc.delay_histogram(), std::logic_error);
}

TEST(SequentialTokenProcessDelays, LoneTokenNeverWaits) {
  SequentialTokenProcess proc(16, {3}, Rng(21), delay_options());
  proc.run(50);
  const Histogram& delays = proc.delay_histogram();
  EXPECT_EQ(delays.total(), 50u);   // one release per round
  EXPECT_EQ(delays.max_value(), 0u);  // never queued behind anyone
}

TEST(SequentialTokenProcessDelays, FifoPileDelaysAreExact) {
  // n tokens piled in one bin, FIFO: token i waits exactly i rounds
  // before its first release, so the first n recorded delays are
  // 0, 1, ..., n-1 (one of each).
  constexpr std::uint32_t n = 16;
  SequentialTokenProcess proc(n, std::vector<std::uint32_t>(n, 0), Rng(22),
                              delay_options());
  proc.run(n);  // exactly drains the initial pile (plus re-released ones)
  const Histogram& delays = proc.delay_histogram();
  // Every delay value 0..n-1 appears at least once (the pile drain)...
  for (std::uint32_t d = 0; d < n; ++d) {
    EXPECT_GE(delays.count_at(d), 1u) << "delay " << d;
  }
  // ...and nothing can wait longer than the initial pile.
  EXPECT_LE(delays.max_value(), n - 1);
}

TEST(SequentialTokenProcessDelays, LifoBuriesTheOldest) {
  // LIFO on a pile: the newest token leaves immediately every round while
  // the bottom token starves -- max delay far above FIFO's.
  constexpr std::uint32_t n = 16;
  SequentialTokenProcess proc(n, std::vector<std::uint32_t>(n, 0), Rng(23),
                              delay_options(QueuePolicy::kLifo));
  proc.run(10 * n);
  EXPECT_GE(proc.delay_histogram().max_value(), n - 1);
}

TEST(SequentialTokenProcessDelays, ReassignResetsArrivalClock) {
  SequentialTokenProcess proc(8, one_per_bin(8), Rng(24), delay_options());
  proc.run(100);
  proc.reassign(std::vector<std::uint32_t>(8, 0));
  // After reassignment at round 100, the very next releases wait at most
  // the pile height, not 100+ rounds.
  proc.run(8);
  EXPECT_LE(proc.delay_histogram().max_value(), 32u);
}

// Property sweep: across policies and sizes, tokens are conserved, loads
// match queue contents, and total progress equals the departure count.
class TokenSweep
    : public ::testing::TestWithParam<std::tuple<QueuePolicy, std::uint32_t>> {
};

TEST_P(TokenSweep, InvariantsHoldOverWindow) {
  const auto [policy, n] = GetParam();
  SequentialTokenProcess proc(
      n, one_per_bin(n), Rng(13 + n),
      TokenOptions{.track_visits = true, .policy = policy});
  for (std::uint32_t t = 0; t < 10 * n; ++t) proc.step();
  proc.check_invariants();
  std::uint32_t total = 0;
  for (std::uint32_t u = 0; u < n; ++u) total += proc.load(u);
  EXPECT_EQ(total, n);
  EXPECT_GT(proc.min_progress(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSizes, TokenSweep,
    ::testing::Combine(::testing::Values(QueuePolicy::kFifo,
                                         QueuePolicy::kLifo,
                                         QueuePolicy::kRandom),
                       ::testing::Values(8u, 64u, 256u)));

}  // namespace
}  // namespace rbb
