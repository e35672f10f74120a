// The checkpoint write path (DESIGN.md Sect. 7): write_checkpoint_file
// streams envelope prefix, payload and trailer, and the bytes on disk
// must equal encode() exactly -- also the half a mid-payload crash
// leaves behind.  Every core's snapshot_size() must equal the bytes its
// snapshot() appends (snapshot() reserves exactly that much), and a
// CheckpointPlan that rewrites a round must not prune the file it just
// wrote.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
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

namespace fs = std::filesystem;

fs::path fresh_dir(const char* tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("rbb-write-" + std::to_string(::getpid()) + "-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Independent of ckpt::read_file, which is itself on the read path.
std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// A checkpoint with an odd-sized (not a multiple of 16) pseudo-random
// payload of a little over 1 MiB.
ckpt::Checkpoint big_checkpoint(std::uint64_t round) {
  ckpt::Checkpoint c;
  c.header.family = ckpt::Family::kToken;
  c.header.backend = ckpt::kBackendSharded;
  c.header.bins = 1 << 16;
  c.header.entities = 1 << 16;
  c.header.seed = 5;
  c.header.round = round;
  c.header.options_digest = ckpt::digest("experiment=write-path");
  c.meta = "experiment=write-path\n";
  Rng rng(round + 1);
  c.payload.resize((std::size_t{1} << 20) + 13);
  for (char& b : c.payload) b = static_cast<char>(rng());
  return c;
}

TEST(CkptWritePath, FileBytesEqualEncode) {
  const fs::path dir = fresh_dir("bytes");
  const ckpt::Checkpoint c = big_checkpoint(16);
  const std::string path = (dir / ckpt::checkpoint_filename(16)).string();
  std::string error;
  ASSERT_TRUE(ckpt::write_checkpoint_file(path, c, &error)) << error;
  const std::string want = ckpt::encode(c);
  EXPECT_EQ(slurp(path), want);
  EXPECT_EQ(ckpt::read_file(path), want);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const ckpt::Checkpoint back = ckpt::read_checkpoint(path);
  EXPECT_EQ(back.payload, c.payload);
  fs::remove_all(dir);
}

TEST(CkptWritePath, MultiPartWriteConcatenatesParts) {
  const fs::path dir = fresh_dir("parts");
  const std::string path = (dir / "out.bin").string();
  const std::string_view parts[] = {"", "ab", "", "cde", "f"};
  std::string error;
  ASSERT_TRUE(ckpt::atomic_write_file(path, parts, &error)) << error;
  EXPECT_EQ(slurp(path), "abcdef");
  ASSERT_TRUE(ckpt::atomic_write_file(path, std::string_view(), &error))
      << error;
  EXPECT_EQ(slurp(path), "");
  EXPECT_EQ(ckpt::read_file(path), "");
  fs::remove_all(dir);
}

TEST(CkptWritePath, ReadFileRejectsMissingFileAndDirectory) {
  const fs::path dir = fresh_dir("missing");
  for (const fs::path& path : {dir / "absent.ckpt", dir}) {
    try {
      (void)ckpt::read_file(path.string());
      ADD_FAILURE() << "read_file accepted " << path;
    } catch (const ckpt::Error& e) {
      EXPECT_EQ(e.kind(), ckpt::ErrorKind::kIo) << path;
    }
  }
  fs::remove_all(dir);
}

// The mid-payload kill point fires after the first floor(size/2) bytes
// of the whole file, wherever that falls among the streamed parts.
TEST(CkptWritePath, MidPayloadKillLeavesFirstHalfOfEncode) {
  const fs::path dir = fresh_dir("kill");
  constexpr std::uint64_t kRound = 32;
  const ckpt::Checkpoint c = big_checkpoint(kRound);
  const std::string path = (dir / ckpt::checkpoint_filename(kRound)).string();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("RBB_CRASH_AT",
             (std::string(ckpt::kCrashMidPayload) + ":" +
              std::to_string(kRound)).c_str(),
             1);
    std::string error;
    (void)ckpt::write_checkpoint_file(path, c, &error);
    ::_exit(0);  // the kill point did not fire
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), ckpt::kCrashExitCode);
  const std::string full = ckpt::encode(c);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(slurp(path + ".tmp"), full.substr(0, full.size() / 2));
  EXPECT_FALSE(ckpt::latest_checkpoint(dir.string()).has_value());
  fs::remove_all(dir);
}

// Rewriting a round the plan already wrote replaces its entry: with
// keep=1 the prune must not unlink the file the write just produced.
TEST(CkptWritePath, PlanRewriteOfSameRoundKeepsTheFile) {
  const fs::path dir = fresh_dir("plan");
  ckpt::CheckpointPlan plan(dir.string(), 16, 1);
  const ckpt::Checkpoint c = big_checkpoint(16);
  ASSERT_TRUE(plan.write(c).has_value());
  const auto again = plan.write(c);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(fs::exists(*again));
  EXPECT_EQ(ckpt::latest_checkpoint(dir.string()), again);

  // keep=2: 16, 32, 16 again keeps both files; the next write prunes
  // the oldest entry, which is now 32.
  ckpt::CheckpointPlan keep2(dir.string(), 16, 2);
  const auto p16 = keep2.write(big_checkpoint(16));
  const auto p32 = keep2.write(big_checkpoint(32));
  ASSERT_TRUE(keep2.write(big_checkpoint(16)).has_value());
  EXPECT_TRUE(fs::exists(*p16));
  EXPECT_TRUE(fs::exists(*p32));
  const auto p48 = keep2.write(big_checkpoint(48));
  ASSERT_TRUE(p48.has_value());
  EXPECT_TRUE(fs::exists(*p16));
  EXPECT_FALSE(fs::exists(*p32));
  EXPECT_TRUE(fs::exists(*p48));
  fs::remove_all(dir);
}

// -- snapshot_size(): exactly the bytes snapshot() appends ------------------

constexpr std::uint32_t kBins = 257;
constexpr std::uint64_t kSeed = 91;

LoadConfig start_config() {
  Rng rng(kSeed);
  return make_config(InitialConfig::kAllInOne, kBins, kBins, rng);
}

template <typename Proc>
void ExpectSnapshotSizeExact(Proc&& proc) {
  proc.run(7);
  serial::ByteWriter w;
  w.u32(0xABCDu);  // snapshot() appends to whatever the writer holds
  const std::size_t before = w.size();
  proc.snapshot(w);
  EXPECT_EQ(w.size() - before, proc.snapshot_size());
}

TEST(CkptSnapshotSize, LoadAndTetrisCores) {
  ExpectSnapshotSizeExact(par::SequentialCounterProcess(start_config(), kSeed));
  ExpectSnapshotSizeExact(par::ShardedRepeatedBallsProcess(
      start_config(), kSeed, par::ShardedOptions{.threads = 2}));
  ExpectSnapshotSizeExact(
      par::SequentialCounterTetrisProcess(start_config(), kSeed));
  ExpectSnapshotSizeExact(par::ShardedTetrisProcess(
      start_config(), kSeed, 0, par::ShardedOptions{.threads = 2}));
}

TEST(CkptSnapshotSize, TokenCoreWithVisitsOnAndOff) {
  for (const bool visits : {false, true}) {
    SCOPED_TRACE(visits ? "visits on" : "visits off");
    kernel::TokenOptions options;
    options.track_visits = visits;
    ExpectSnapshotSizeExact(par::SequentialCounterTokenProcess(
        kBins, identity_placement(kBins), kSeed, options));
    ExpectSnapshotSizeExact(par::ShardedTokenProcess(
        kBins, identity_placement(kBins), kSeed,
        par::ShardedOptions{.threads = 2}, options));
  }
}

TEST(CkptSnapshotSize, MixedCore) {
  const MixedSpec spec = make_mixed_spec(kBins, 2.0, "bimodal", "capped");
  ExpectSnapshotSizeExact(par::SequentialCounterMixedProcess(spec, kSeed));
  ExpectSnapshotSizeExact(
      par::ShardedMixedProcess(spec, kSeed, par::ShardedOptions{.threads = 2}));
}

}  // namespace
}  // namespace rbb
