// E7 -- Lemma 6: the Tetris process started from a legitimate
// configuration keeps maximum load O(log n) over any polynomial window,
// plus the critical-drift ablation (arrival rate mu*n as mu -> 1).
#include <algorithm>
#include <cstdint>

#include "core/config.hpp"
#include "par/sharded_variants.hpp"
#include "runner/registry.hpp"
#include "support/bounds.hpp"
#include "support/stats.hpp"
#include "tetris/tetris.hpp"

namespace rbb::runner {

namespace {

/// Accumulators of one measured Tetris window.
struct TetrisWindow {
  double max_load = 0.0;
  double min_empty_frac = 1.0;
  double empty_frac_sum = 0.0;
  double final_balls = 0.0;
};

/// Runs `window` rounds of `proc`, folding per-round stats.  Both
/// backends produce TetrisRoundStats, so one body serves the whole
/// policy matrix -- the old seq/sharded driver split is gone.
template <typename Process>
TetrisWindow measure_window(Process& proc, std::uint64_t window,
                            std::uint32_t n) {
  TetrisWindow w;
  for (std::uint64_t t = 0; t < window; ++t) {
    const TetrisRoundStats s = proc.step();
    w.max_load = std::max(w.max_load, static_cast<double>(s.max_load));
    const double empty_frac = static_cast<double>(s.empty_bins) / n;
    w.min_empty_frac = std::min(w.min_empty_frac, empty_frac);
    w.empty_frac_sum += empty_frac;
    w.final_balls = static_cast<double>(s.total_balls);
  }
  return w;
}

}  // namespace

void register_tetris_stability(Registry& registry) {
  Experiment e{.name = "tetris_stability", .claim = "E7"};
  e.title = "Tetris window max load is O(log n) (Lemma 6)";
  e.description =
      "Mirror of the E1 stability window for the auxiliary Tetris "
      "process.  Includes the critical-drift ablation: raising the "
      "arrival rate from 3n/4 toward n erodes the negative drift and the "
      "window max load grows -- showing why the 3/4 constant works.  "
      "Backend-capable (Tetris family): --backend=sharded runs both "
      "tables on the src/par/ counter-RNG kernel (ball-by-ball "
      "arrivals; same statistics, different trajectories).";
  e.family = ProcessFamily::kTetris;
  e.run = [](const RunContext& ctx) {
    const std::uint32_t trials = ctx.trials_or(2, 4, 8);
    const std::uint64_t wf = by_scale<std::uint64_t>(ctx.scale, 5, 20, 50);
    const std::uint64_t seed = ctx.seed();
    const bool sharded = ctx.sharded();

    /// One trial's window under the requested backend: the
    /// configuration always comes from the trial's xoshiro substream,
    /// mirroring every other backend-capable experiment.
    const auto run_window = [&](std::uint64_t trial_seed,
                                std::uint32_t trial, std::uint32_t n,
                                std::uint64_t arrivals,
                                std::uint64_t window) {
      Rng rng(trial_seed, trial);
      LoadConfig config = make_config(InitialConfig::kRandom, n, n, rng);
      if (sharded) {
        par::ShardedTetrisProcess proc(std::move(config),
                                       mix64(trial_seed, trial), arrivals,
                                       par::ShardedOptions{1, 0});
        return measure_window(proc, window, n);
      }
      TetrisProcess proc(std::move(config), rng, arrivals);
      return measure_window(proc, window, n);
    };

    ResultSet rs;
    Table& table = rs.add_table(
        "E7_tetris_stability",
        "Tetris window max load is O(log n) (Lemma 6)",
        {"n", "window", "max load (mean)", "max / log2 n",
         "min empty frac"});
    for (const std::uint32_t n : default_n_sweep(ctx.scale)) {
      OnlineMoments wmax;
      OnlineMoments memp;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        const TetrisWindow w = run_window(seed, trial, n, 0, wf * n);
        wmax.add(w.max_load);
        memp.add(w.min_empty_frac);
      }
      table.row()
          .cell(std::uint64_t{n})
          .cell(wf * n)
          .cell(wmax.mean(), 2)
          .cell(wmax.mean() / log2n(n), 3)
          .cell(memp.min(), 3);
    }

    // Ablation: arrival rate mu * n for mu -> 1 (the drift -(1 - mu)
    // vanishing).  Fixed n, same window.
    const std::uint32_t n = by_scale<std::uint32_t>(ctx.scale, 256, 1024, 4096);
    Table& ablation = rs.add_table(
        "E7b_tetris_critical",
        "ablation: why 3/4 -- max load explodes as mu -> 1",
        {"arrival fraction mu", "drift per bin", "max load (mean)",
         "mean empty frac", "final total balls / n"});
    for (const double mu : {0.5, 0.75, 0.9, 0.95, 1.0}) {
      OnlineMoments wmax;
      OnlineMoments memp;
      OnlineMoments mass;
      const auto arrivals =
          static_cast<std::uint64_t>(mu * static_cast<double>(n));
      const std::uint64_t window = 10ull * n;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        const TetrisWindow w =
            run_window(seed + 17, trial, n, arrivals, window);
        wmax.add(w.max_load);
        memp.add(w.empty_frac_sum / static_cast<double>(window));
        mass.add(w.final_balls / n);
      }
      ablation.row()
          .cell(mu, 2)
          .cell(mu - 1.0, 2)
          .cell(wmax.mean(), 2)
          .cell(memp.mean(), 3)
          .cell(mass.mean(), 3);
    }
    return rs;
  };
  registry.add(std::move(e));
}

}  // namespace rbb::runner
