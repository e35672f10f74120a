// Repository benchmark measurement binary: times calls into the rbb
// library's public API from outside and prints ONE JSON object of raw
// measurements on stdout.  perfbench/run.py builds this binary, derives
// the end-to-end and per-layer metrics from that object and checks the
// outputs; see perfbench/README.md for the workloads and the layer ->
// metric map.
//
//   rbb_perfbench --workload load_mega|token_ckpt|converge_trials
//                 --seed N --seconds S --trace 0|1 --workdir DIR
//
// Every workload uses at most kThreads worker threads.  With --trace 1
// the run additionally measures the per-layer probes: an obs-enabled
// block (phase totals), the single-thread bit-identity prefix, the draw
// plane, a STREAM triad and the checkpoint breakdown.  Checks that fail
// are counted as failed operations and listed under "failures".
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "core/config.hpp"
#include "core/kernel/token_store.hpp"
#include "core/process.hpp"
#include "engine/engine.hpp"
#include "engine/faults.hpp"
#include "engine/stop.hpp"
#include "engine/trials.hpp"
#include "obs/metrics.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "runner/result.hpp"
#include "support/bounds.hpp"
#include "support/counter_rng.hpp"
#include "support/draw_plane.hpp"
#include "support/meminfo.hpp"
#include "support/rng.hpp"
#include "support/serial.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Worker threads per workload: 4, or fewer on a smaller machine.
const unsigned kThreads =
    std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
constexpr double kBeta = 4.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

// --- output -----------------------------------------------------------------

/// Flat JSON object writer; values are encoded when added, keys keep
/// insertion order.
class Json {
 public:
  void num(const std::string& key, double v) { put(key, number(v)); }
  void u64(const std::string& key, std::uint64_t v) {
    put(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    put(key, quote(v));
  }
  void nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) s += ',';
      s += number(v[i]);
    }
    put(key, s + "]");
  }
  void strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) s += ',';
      s += quote(v[i]);
    }
    put(key, s + "]");
  }
  [[nodiscard]] std::string dump() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      s += (i ? ",\n " : "") + quote(fields_[i].first) + ": " +
           fields_[i].second;
    }
    return s + "}";
  }

 private:
  /// %.17g round-trips a double; JSON has no NaN or infinity.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  static std::string quote(const std::string& v) {
    return "\"" + rbb::runner::json_escape(v) + "\"";
  }
  void put(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Checked operations: every check is one attempted operation; a failed
/// one is counted and named.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// --- system probes ----------------------------------------------------------

struct Usage {
  double minflt = 0;
  double nvcsw = 0;
  double nivcsw = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_minflt), static_cast<double>(ru.ru_nvcsw),
          static_cast<double>(ru.ru_nivcsw)};
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.minflt - b.minflt, a.nvcsw - b.nvcsw, a.nivcsw - b.nivcsw};
}

Usage operator+(const Usage& a, const Usage& b) {
  return {a.minflt + b.minflt, a.nvcsw + b.nvcsw, a.nivcsw + b.nivcsw};
}

/// VmHWM in bytes, or -1 when the platform does not report it.
double peak_rss_bytes() {
  const rbb::PeakRss rss = rbb::peak_rss();
  return rss.available ? static_cast<double>(rss.bytes) : -1.0;
}

/// Size of the highest cache level the OS reports for cpu0, or 0.
std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(index) + "/size");
    std::string text;
    if (!(f >> text) || text.empty()) continue;
    std::uint64_t size = std::strtoull(text.c_str(), nullptr, 10);
    if (text.back() == 'K') size <<= 10;
    if (text.back() == 'M') size <<= 20;
    best = std::max(best, size);
  }
  return best;
}

/// MemAvailable in bytes, or 0 when unknown.
std::uint64_t mem_available_bytes() {
  std::ifstream f("/proc/meminfo");
  std::string key;
  std::uint64_t kb = 0;
  std::string unit;
  while (f >> key >> kb >> unit) {
    if (key == "MemAvailable:") return kb << 10;
  }
  return 0;
}

/// STREAM triad a = b + q*c over kThreads threads; each array is at
/// least 4x the LLC (or fits in half of MemAvailable, whichever is
/// smaller -- the recorded size says which).  Reports the best of five
/// timed passes at 24 bytes per element (STREAM's convention).
void triad_probe(Json& out) {
  const std::uint64_t llc = llc_bytes();
  const std::uint64_t fallback = std::uint64_t{256} << 20;
  std::uint64_t array_bytes = 4 * (llc != 0 ? llc : fallback);
  const std::uint64_t avail = mem_available_bytes();
  if (avail != 0 && 3 * array_bytes > avail / 2) array_bytes = avail / 6;
  const std::size_t count = array_bytes / sizeof(double);
  std::vector<double> a(count), b(count), c(count);
  const auto pass = [&](double q) {
    std::vector<std::jthread> team;  // joined when the pass returns
    for (unsigned t = 0; t < kThreads; ++t) {
      team.emplace_back([&, t] {
        const std::size_t lo = count * t / kThreads;
        const std::size_t hi = count * (t + 1) / kThreads;
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + q * c[i];
      });
    }
  };
  std::fill(b.begin(), b.end(), 1.0);
  std::fill(c.begin(), c.end(), 2.0);
  pass(0.5);
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    pass(3.0);
    best = std::min(best, seconds_since(t0));
  }
  out.num("llc_bytes", llc != 0 ? static_cast<double>(llc) : -1.0);
  out.num("triad_array_bytes", static_cast<double>(count * sizeof(double)));
  out.num("triad_GBps", 3.0 * static_cast<double>(count) * 8.0 / best / 1e9);
  out.num("triad_check", a[count / 2]);  // 1 + 3 * 2 = 7
}

/// DrawPlane::fill_range over n slots in kernel-sized 4096-slot chunks
/// at the active ISA; median of five reps of >= 50 ms each.
void plane_probe(Json& out, std::uint32_t n, std::uint64_t seed) {
  const rbb::DrawPlane plane(rbb::CounterRng{seed});
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint32_t> buf(kChunk);
  std::uint64_t round = 0;
  std::uint64_t sink = 0;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t draws = 0;
    const auto t0 = Clock::now();
    do {
      for (std::uint64_t s = 0; s < n; s += kChunk) {
        const std::size_t len = std::min<std::uint64_t>(kChunk, n - s);
        plane.fill_range(round, s, len, n, buf.data());
        sink += buf[len - 1];
        draws += len;
      }
      ++round;
    } while (seconds_since(t0) < 0.05);
    rates.push_back(static_cast<double>(draws) / seconds_since(t0));
  }
  out.num("plane_draws_per_s", median(rates));
  out.str("plane_isa", rbb::active_plane_isa() == rbb::PlaneIsa::kAvx2
                           ? "avx2"
                           : "portable");
  out.u64("plane_sink", sink % 2);
}

/// Phase totals of one obs-enabled block.
void emit_obs(Json& out, const rbb::obs::MetricsSnapshot& s) {
  using rbb::obs::Counter;
  using rbb::obs::Phase;
  for (const Phase p : {Phase::kThrow, Phase::kCommit, Phase::kRescan,
                        Phase::kPlaneFill, Phase::kEpochWait, Phase::kOverlap,
                        Phase::kBarrierWait, Phase::kPoolTask,
                        Phase::kCkptWrite}) {
    out.num(std::string("obs_ns_") + rbb::obs::to_string(p),
            static_cast<double>(s.phase(p)));
  }
  for (const Counter c : {Counter::kPoolBatches, Counter::kPoolTasks,
                          Counter::kCheckpointWrites,
                          Counter::kCheckpointRetries,
                          Counter::kCheckpointFailures}) {
    out.u64(std::string("obs_") + rbb::obs::to_string(c), s.counter(c));
  }
  out.num("obs_fill_fraction", s.pipeline_fill_fraction());
  out.num("obs_barrier_wait_fraction", s.barrier_wait_fraction());
}

template <typename Proc>
std::string snapshot_bytes(const Proc& proc) {
  rbb::serial::ByteWriter w;
  proc.snapshot(w);
  return w.take();
}

template <typename Proc>
std::uint32_t state_crc(const Proc& proc) {
  return rbb::serial::crc32(snapshot_bytes(proc));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

/// The timed block of the two single-instance workloads.  The process is
/// built kBuilds times; each build is one set-up sample (construction,
/// first touch and two warm-up rounds, the smallest run that takes the
/// pipelined path) and then runs `chunk` for an equal share of
/// --seconds.  Spreading the set-up and chunk samples over the whole run
/// keeps their medians steady when the machine's speed drifts.  The
/// last build is kept; the x4 state CRC at round 2 of the first build
/// is the prefix the bit-identity check replays.
template <typename Proc, typename Make, typename Chunk>
std::uint32_t timed_block(std::optional<Proc>& proc, Make&& make,
                          Chunk&& chunk, double chunk_bin_rounds,
                          const Args& args, Json& out) {
  constexpr int kBuilds = 6;
  std::vector<double> setup_s;
  std::vector<double> chunk_s;
  Usage setup_usage;
  Usage timed_usage;
  double wall = 0;
  std::uint32_t prefix_crc = 0;
  for (int build = 0; build < kBuilds; ++build) {
    proc.reset();
    const Usage u0 = usage_now();
    const auto t0 = Clock::now();
    make(proc);
    proc->run(2);
    setup_s.push_back(seconds_since(t0));
    setup_usage = setup_usage + (usage_now() - u0);
    if (build == 0) {
      prefix_crc = state_crc(*proc);
      out.u64("prefix_crc", prefix_crc);
      out.num("state_bytes",
              static_cast<double>(proc->resident_state_bytes()));
    }
    const double share = args.seconds / kBuilds;
    const Usage u1 = usage_now();
    const auto t1 = Clock::now();
    do {
      const auto c0 = Clock::now();
      chunk();
      chunk_s.push_back(seconds_since(c0));
    } while (seconds_since(t1) + 0.5 * chunk_s.back() < share);
    wall += seconds_since(t1);
    timed_usage = timed_usage + (usage_now() - u1);
  }
  out.nums("setup_s_samples", setup_s);
  out.nums("chunk_s", chunk_s);
  out.num("chunk_bin_rounds", chunk_bin_rounds);
  out.num("timed_wall_s", wall);
  out.num("peak_rss_bytes", peak_rss_bytes());
  out.num("minflt_setup", setup_usage.minflt);
  out.num("minflt_timed", timed_usage.minflt);
  out.num("nvcsw_timed", timed_usage.nvcsw);
  out.num("nivcsw_timed", timed_usage.nivcsw);
  return prefix_crc;
}

/// The fixed obs-enabled block of a traced run: `rounds` rounds as
/// chunks of `chunk_rounds`, with the registry reset before and scraped
/// after, so no other block's phases are blended in.
template <typename Chunk>
void traced_block(std::uint64_t rounds, std::uint64_t chunk_rounds,
                  std::uint32_t n, Chunk&& chunk, Json& out) {
  rbb::obs::reset();
  rbb::obs::set_enabled(true);
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < rounds; r += chunk_rounds) chunk();
  const double wall = seconds_since(t0);
  rbb::obs::set_enabled(false);
  emit_obs(out, rbb::obs::scrape());
  out.num("traced_wall_s", wall);
  out.num("traced_bin_rounds", static_cast<double>(rounds) * n);
}

/// ns per bin-round of the next two rounds of `proc`, timed alone.
template <typename Proc>
double time_two_rounds(Proc& proc, std::uint32_t n) {
  const auto t0 = Clock::now();
  proc.run(2);
  return seconds_since(t0) * 1e9 / (2.0 * n);
}

/// The bit-identity prefix: a fresh `Proc` (x1 or single-thread
/// sequential counter) must reach the x4 state at round 2.  Returns the
/// ns per bin-round of the two rounds after it.
template <typename Proc, typename Make>
double prefix_check(Make&& make, std::uint32_t x4_crc, std::uint32_t n,
                    const char* what, Ops& ops) {
  std::optional<Proc> proc;
  make(proc);
  proc->run(2);
  ops.check(state_crc(*proc) == x4_crc,
            std::string(what) + ": state CRC at round 2 differs from x4");
  return time_two_rounds(*proc, n);
}

/// check_invariants() as one checked operation.
template <typename Proc>
void check_invariants(const Proc& proc, const std::string& what, Ops& ops) {
  try {
    proc.check_invariants();
    ops.check(true, what);
  } catch (const std::exception& e) {
    ops.check(false, what + ": " + e.what());
  }
}

// --- load_mega --------------------------------------------------------------

void load_mega(const Args& args, Json& out, Ops& ops) {
  constexpr std::uint32_t n = std::uint32_t{1} << 25;
  constexpr std::uint64_t kChunk = 8;
  using Sharded = rbb::par::ShardedRepeatedBallsProcess;
  const auto config = [&] {
    rbb::Rng rng(args.seed);
    return rbb::make_config(rbb::InitialConfig::kOnePerBin, n, n, rng);
  };
  const auto make_x = [&](unsigned threads) {
    return [&, threads](std::optional<Sharded>& p) {
      p.emplace(config(), args.seed, rbb::par::ShardedOptions{threads, 0});
    };
  };
  out.u64("n", n);

  std::optional<Sharded> proc;
  const auto chunk = [&] {
    proc->run(kChunk);
    ops.check(proc->is_legitimate(kBeta),
              "round " + std::to_string(proc->round()) + ": max load " +
                  std::to_string(proc->max_load()) + " > beta log2 n");
  };
  const std::uint32_t x4_crc = timed_block(
      proc, make_x(kThreads), chunk, static_cast<double>(kChunk) * n, args,
      out);

  if (args.trace) traced_block(32, kChunk, n, chunk, out);

  check_invariants(*proc, "check_invariants after the timed block", ops);
  ops.check(proc->total_balls() == n &&
                rbb::total_balls(proc->loads()) == std::uint64_t{n},
            "ball conservation");
  proc.reset();

  if (!args.trace) return;
  out.num("x1_ns_per_ball",
          prefix_check<Sharded>(make_x(1), x4_crc, n, "sharded x1", ops));
  out.num("seq_counter_ns_per_ball",
          prefix_check<rbb::par::SequentialCounterProcess>(
              [&](auto& p) { p.emplace(config(), args.seed); }, x4_crc, n,
              "sequential counter", ops));
  {
    rbb::RepeatedBallsProcess seq(config(), rbb::Rng(args.seed, 1));
    seq.run(2);
    out.num("seq_ns_per_ball", time_two_rounds(seq, n));
  }
  plane_probe(out, n, args.seed);
  triad_probe(out);
}

// --- token_ckpt -------------------------------------------------------------

void token_ckpt(const Args& args, Json& out, Ops& ops) {
  constexpr std::uint32_t n = std::uint32_t{1} << 23;
  constexpr std::uint64_t kEvery = 16;
  using Sharded = rbb::par::ShardedTokenProcess;
  const auto make_x = [&](unsigned threads) {
    return [&, threads](std::optional<Sharded>& p) {
      p.emplace(n, rbb::identity_placement(n), args.seed,
                rbb::par::ShardedOptions{threads, 0});
    };
  };
  const std::string canonical = "experiment=perfbench workload=token_ckpt n=" +
                                std::to_string(n) +
                                " seed=" + std::to_string(args.seed);
  const std::uint32_t digest = rbb::ckpt::digest(canonical);
  out.u64("n", n);

  std::optional<Sharded> proc;
  const auto make_ckpt = [&] {
    rbb::ckpt::Checkpoint c;
    c.header.family = rbb::ckpt::Family::kToken;
    c.header.backend = rbb::ckpt::kBackendSharded;
    c.header.bins = n;
    c.header.entities = n;
    c.header.seed = args.seed;
    c.header.round = proc->round();
    c.header.options_digest = digest;
    c.meta = "experiment=perfbench\nworkload=token_ckpt\n";
    c.payload = snapshot_bytes(*proc);
    return c;
  };
  // Each build writes through its own plan (keep last 1): builds revisit
  // the same rounds, so one plan would prune the file it just wrote.
  std::optional<rbb::ckpt::CheckpointPlan> plan;
  std::string last_path;
  const auto build = [&](std::optional<Sharded>& p) {
    if (!last_path.empty()) std::remove(last_path.c_str());
    last_path.clear();
    plan.emplace(args.workdir, kEvery, 1);
    make_x(kThreads)(p);
  };
  std::vector<double> ckpt_s;
  // One chunk: kEvery rounds, then a durable checkpoint.
  const auto chunk = [&] {
    proc->run(kEvery);
    const auto c0 = Clock::now();
    const auto path = plan->write(make_ckpt());
    ckpt_s.push_back(seconds_since(c0));
    ops.check(path.has_value(), "checkpoint write at round " +
                                    std::to_string(proc->round()));
    if (path) last_path = *path;
  };

  const std::uint32_t x4_crc = timed_block(
      proc, build, chunk, static_cast<double>(kEvery) * n, args, out);
  out.nums("chunk_ckpt_s", ckpt_s);

  if (args.trace) {
    ckpt_s.clear();
    traced_block(32, kEvery, n, chunk, out);
    out.nums("traced_ckpt_s", ckpt_s);
  }

  // Every queue walked holds exactly the n tokens placed at the start.
  check_invariants(*proc, "token conservation after the timed block", ops);

  // Resume the last checkpoint into a fresh process, as `rbb resume`
  // does after a crash; it must continue bit-identically.
  {
    std::optional<Sharded> resumed;
    make_x(kThreads)(resumed);
    const auto t1 = Clock::now();
    const rbb::ckpt::Checkpoint c = rbb::ckpt::read_checkpoint(last_path);
    rbb::ckpt::verify_matches(c.header, rbb::ckpt::Family::kToken, n, n,
                              args.seed, digest);
    rbb::serial::ByteReader r(c.payload);
    resumed->restore(r);
    out.num("resume_s", seconds_since(t1));
    ops.check(r.done(), "trailing bytes after the token payload");
    ops.check(state_crc(*resumed) == state_crc(*proc),
              "resumed state CRC differs from the live one");
    resumed->run(1);
    proc->run(1);
    ops.check(state_crc(*resumed) == state_crc(*proc),
              "resumed and live states diverge one round later");
  }

  if (args.trace) {
    // The checkpoint layer split on one checkpoint of the live state.
    const auto t1 = Clock::now();
    rbb::ckpt::Checkpoint c = make_ckpt();
    out.num("ckpt_snapshot_s", seconds_since(t1));
    const auto t2 = Clock::now();
    const std::string bytes = rbb::ckpt::encode(c);
    out.num("ckpt_encode_s", seconds_since(t2));
    c = {};
    const std::string path = args.workdir + "/split.ckpt";
    std::string error;
    const auto t3 = Clock::now();
    const bool wrote = rbb::ckpt::atomic_write_file(path, bytes, &error);
    out.num("ckpt_persist_s", seconds_since(t3));
    out.num("ckpt_bytes", static_cast<double>(bytes.size()));
    ops.check(wrote, "atomic_write_file: " + error);
    const auto t4 = Clock::now();
    const std::string read_back = rbb::ckpt::read_file(path);
    out.num("ckpt_read_s", seconds_since(t4));
    const auto t5 = Clock::now();
    const rbb::ckpt::Checkpoint decoded = rbb::ckpt::decode(read_back);
    out.num("ckpt_decode_s", seconds_since(t5));
    std::optional<Sharded> target;
    make_x(kThreads)(target);
    rbb::serial::ByteReader r(decoded.payload);
    const auto t6 = Clock::now();
    target->restore(r);
    out.num("ckpt_restore_s", seconds_since(t6));
    ops.check(state_crc(*target) == state_crc(*proc),
              "split-timed restore differs from the live state");
    std::remove(path.c_str());
  }
  if (!last_path.empty()) std::remove(last_path.c_str());
  proc.reset();

  if (!args.trace) return;
  {
    const rbb::kernel::FlatTokenStore store(n, n, rbb::QueuePolicy::kFifo);
    out.num("token_store_bytes", static_cast<double>(store.resident_bytes()));
  }
  out.num("x1_ns_per_ball",
          prefix_check<Sharded>(make_x(1), x4_crc, n, "sharded x1", ops));
  out.num("seq_counter_ns_per_ball",
          prefix_check<rbb::par::SequentialCounterTokenProcess>(
              [&](auto& p) {
                p.emplace(n, rbb::identity_placement(n), args.seed);
              },
              x4_crc, n, "sequential counter", ops));
  {
    rbb::kernel::SequentialTokenProcess seq(n, rbb::identity_placement(n),
                                            rbb::Rng(args.seed, 1));
    seq.run(2);
    out.num("seq_ns_per_ball", time_two_rounds(seq, n));
  }
  plane_probe(out, n, args.seed);
  triad_probe(out);
}

// --- converge_trials --------------------------------------------------------

void converge_trials(const Args& args, Json& out, Ops& ops) {
  constexpr std::uint32_t n = 4096;
  constexpr std::uint32_t kTrials = 128;
  const rbb::TrialPlan plan{kThreads, 1};
  const double threshold = kBeta * rbb::log2n(n);
  out.u64("n", n);
  out.u64("trials", kTrials);
  // One trial as run_convergence runs it on the sequential backend.
  const auto trial = [&](rbb::Rng& rng) {
    rbb::Engine engine(rbb::RepeatedBallsProcess(
        rbb::make_config(rbb::InitialConfig::kAllInOne, n, n, rng), rng));
    return engine.run(64ull * n, rbb::UntilLegitimate{threshold},
                      rbb::NoFaults{});
  };

  // Setup of the sweep: every trial's start configuration, process
  // construction and one warm-up round (the timed sweep repeats this
  // inside its trials).  Half the samples are taken before the timed
  // block and half after it, so their median follows the whole run.
  std::vector<double> setup_s;
  double setup_minflt = 0;
  const auto setups = [&](int reps) {
    const Usage u0 = usage_now();
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<rbb::RepeatedBallsProcess> procs;
      procs.reserve(kTrials);
      const auto t0 = Clock::now();
      for (std::uint32_t trial = 0; trial < kTrials; ++trial) {
        rbb::Rng rng(args.seed, trial);
        procs.emplace_back(
            rbb::make_config(rbb::InitialConfig::kAllInOne, n, n, rng), rng);
        procs.back().step();
      }
      setup_s.push_back(seconds_since(t0));
      if (setup_s.size() == 1) {
        out.num("state_bytes",
                static_cast<double>(procs.front().resident_state_bytes()));
      }
    }
    setup_minflt += (usage_now() - u0).minflt;
  };
  setups(51);

  rbb::ConvergenceParams params;
  params.n = n;
  params.trials = kTrials;
  params.seed = args.seed;
  params.start = rbb::InitialConfig::kAllInOne;
  params.beta = kBeta;
  params.backend = rbb::Backend::kSeq;
  params.plan = plan;

  // Batches of the same seeded trials while the next one ends nearer to
  // --seconds than stopping now would.
  const Usage u0 = usage_now();
  std::vector<std::string> summaries;
  std::vector<double> batch_s;
  double sweep_rounds = 0;
  rbb::ConvergenceResult result;
  const auto t0 = Clock::now();
  do {
    const auto b0 = Clock::now();
    result = rbb::run_convergence(params);
    batch_s.push_back(seconds_since(b0));
    ops.attempted += kTrials;
    ops.failed += result.timeouts;
    if (result.timeouts != 0) {
      ops.failures.push_back(std::to_string(result.timeouts) +
                             " trials hit the 64n round cap");
    }
    const auto& r = result.rounds_to_legitimate;
    sweep_rounds += std::round(r.mean() * static_cast<double>(r.count()));
    char buf[160];
    std::snprintf(buf, sizeof buf, "%llu %u %.17g %.17g %.17g",
                  static_cast<unsigned long long>(r.count()), result.timeouts,
                  r.min(), r.max(), r.mean());
    summaries.emplace_back(buf);
  } while (seconds_since(t0) + 0.5 * batch_s.back() < args.seconds);
  const double wall = seconds_since(t0);
  const Usage du = usage_now() - u0;
  for (const auto& s : summaries) {
    ops.check(s == summaries.front(), "batch summary differs: " + s);
  }
  setups(50);
  out.nums("setup_s_samples", setup_s);
  out.num("minflt_setup", setup_minflt);
  const auto& r = result.rounds_to_legitimate;
  out.num("timed_wall_s", wall);
  out.nums("chunk_s", batch_s);
  out.num("chunk_bin_rounds", sweep_rounds / batch_s.size() * n);
  out.num("peak_rss_bytes", peak_rss_bytes());
  out.num("minflt_timed", du.minflt);
  out.num("nvcsw_timed", du.nvcsw);
  out.num("nivcsw_timed", du.nivcsw);
  out.u64("trials_done", r.count());
  out.u64("timeouts", result.timeouts);
  out.num("rounds_min", r.min());
  out.num("rounds_max", r.max());
  out.num("rounds_mean", r.mean());
  out.num("threshold", threshold);

  if (!args.trace) return;
  // The same sweep through for_each_trial with one span per trial.
  std::vector<double> rounds(kTrials, -1.0);
  std::vector<double> trial_s(kTrials, 0.0);
  rbb::obs::reset();
  rbb::obs::set_enabled(true);
  const auto t1 = Clock::now();
  rbb::for_each_trial(kTrials, args.seed, plan,
                      [&](std::uint32_t i, rbb::Rng& rng) {
                        const auto s0 = Clock::now();
                        const rbb::EngineResult er = trial(rng);
                        if (er.goal_reached) {
                          rounds[i] = static_cast<double>(er.rounds);
                        }
                        trial_s[i] = seconds_since(s0);
                      });
  const double traced_wall = seconds_since(t1);
  rbb::obs::set_enabled(false);
  emit_obs(out, rbb::obs::scrape());
  double traced_rounds = 0;
  for (const double x : rounds) traced_rounds += std::max(x, 0.0);
  out.num("traced_wall_s", traced_wall);
  out.num("traced_bin_rounds", traced_rounds * n);
  out.nums("trial_rounds", rounds);
  out.nums("trial_s", trial_s);
  out.u64("trial_workers", plan.trial_workers);

  {
    // One trial timed alone on this thread.
    rbb::Rng rng(args.seed, 0);
    const auto s0 = Clock::now();
    const rbb::EngineResult er = trial(rng);
    out.num("seq_ns_per_ball", seconds_since(s0) * 1e9 /
                                   (static_cast<double>(er.rounds) * n));
    ops.check(static_cast<double>(er.rounds) == rounds[0],
              "trial 0 alone differs from trial 0 in the sweep");
  }
  plane_probe(out, n, args.seed);
  triad_probe(out);
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "rbb_perfbench: %s\nusage: rbb_perfbench --workload "
               "load_mega|token_ckpt|converge_trials --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return usage_error(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage_error("flags take one value each");
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return usage_error("--seconds must be in (0, 600]");
  }

  Json out;
  Ops ops;
  out.str("workload", args.workload);
  out.u64("seed", args.seed);
  out.u64("threads", kThreads);
  out.num("seconds", args.seconds);
  try {
    if (args.workload == "load_mega") {
      load_mega(args, out, ops);
    } else if (args.workload == "token_ckpt") {
      token_ckpt(args, out, ops);
    } else if (args.workload == "converge_trials") {
      converge_trials(args, out, ops);
    } else {
      return usage_error(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    ops.check(false, std::string("exception: ") + e.what());
  }
  out.u64("attempted", ops.attempted);
  out.u64("failed", ops.failed);
  out.strs("failures", ops.failures);
  std::printf("%s\n", out.dump().c_str());
  return ops.failed == 0 ? 0 : 1;
}
