"""Derived metrics and output checks of the repository benchmark.

The measurement binary (measure.cpp) prints raw measurements -- wall times,
bin-round counts, obs phase totals, rusage deltas, CRCs, per-trial
rounds.  This module turns one raw object into the end-to-end and
per-layer metrics named in BENCHMARK.json and runs the checks that need
only the raw numbers.  test_derive.py covers the formulas.
"""

import math
import statistics
import zlib

BETA = 4.0
# Computed memory traffic: every resident state byte is read once and
# written once per round (labelled "computed": cache hits and misses are
# not measured).
TOUCHES_PER_ROUND = 2
# Value reported for a source the platform does not provide; the text
# report prints "unavailable" next to it.
UNAVAILABLE = -1.0


def percentile(values, q):
    """Nearest-rank percentile: the ceil(q * N)-th smallest value, so
    p90 of 128 samples is the 116th and has 12 samples beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of
    statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def computed_bytes_per_ball(state_bytes, n):
    """Computed bytes moved per bin-round from the resident array sizes."""
    return TOUCHES_PER_ROUND * state_bytes / n


def computed_gbps(bytes_per_ball, ns_per_ball):
    """bytes per bin-round / ns per bin-round = GB/s."""
    return bytes_per_ball / ns_per_ball


def scaling_eff(x1_ns_per_ball, xk_ns_per_ball, k):
    """x1 / (k * xk): 1.0 is perfect k-thread scaling."""
    return x1_ns_per_ball / (k * xk_ns_per_ball)


def convergence_lower_bound(n, beta=BETA):
    """Fewest rounds from the all-in-one start to max load <= beta log2 n:
    the heavy bin releases at most one ball per round, so it needs at
    least n - beta log2 n rounds (rounded up to a whole round)."""
    return max(0, math.ceil(n - beta * math.log2(n)))


def rounds_hash(values):
    """CRC32 of the per-trial round vector as decimal text."""
    text = ",".join(str(int(v)) for v in values)
    return "%08x" % zlib.crc32(text.encode())


def summary_hash(raw):
    """CRC32 of the sweep summary run_convergence returns."""
    text = "%d %d %.17g %.17g %.17g" % (
        raw["trials_done"], raw["timeouts"], raw["rounds_min"],
        raw["rounds_max"], raw["rounds_mean"])
    return "%08x" % zlib.crc32(text.encode())


def determinism_key(raw):
    """What must repeat exactly for a seed: the sweep summary (and, when
    traced, the per-trial round vector) for converge_trials, the x4
    state CRC after set-up otherwise."""
    if raw["workload"] == "converge_trials":
        key = summary_hash(raw)
        if "trial_rounds" in raw:
            key += "/" + rounds_hash(raw["trial_rounds"])
        return key
    return "%08x" % raw["prefix_crc"]


def ns_per_ball(raw):
    """Median over the timed chunks (rounds between checks, or whole
    convergence sweeps) of chunk wall / chunk bin-rounds."""
    return statistics.median(raw["chunk_s"]) * 1e9 / raw["chunk_bin_rounds"]


def end_to_end(raw):
    """name -> (value, unit, note) of every end-to-end metric."""
    rss = raw["peak_rss_bytes"]
    return {
        "ns_per_ball": (ns_per_ball(raw), "ns", ""),
        "setup_s": (statistics.median(raw["setup_s_samples"]), "s", ""),
        "peak_rss_mb": (rss / 2**20 if rss > 0 else UNAVAILABLE, "MiB",
                        "" if rss > 0 else "unavailable"),
    }


def _phase(name):
    def value(raw):
        return raw["obs_ns_" + name] / raw["traced_bin_rounds"]
    return value


def _trial_ms(q):
    def value(raw):
        return 1e3 * percentile(raw["trial_s"], q)
    return value


def _scaling(raw):
    return scaling_eff(raw["x1_ns_per_ball"], ns_per_ball(raw), raw["threads"])


def _computed(raw):
    return computed_gbps(computed_bytes_per_ball(raw["state_bytes"], raw["n"]),
                         ns_per_ball(raw))


def _busy(raw):
    return sum(raw["trial_s"]) / (raw["traced_wall_s"] * raw["trial_workers"])


def _overhead(raw):
    traced = raw["traced_wall_s"] * 1e9 / raw["traced_bin_rounds"]
    return traced / ns_per_ball(raw) - 1.0


def _mib(key):
    def value(raw):
        return raw[key] / 2**20 if raw[key] > 0 else None
    return value


L, T, C = "load_mega", "token_ckpt", "converge_trials"
ALL = (L, T, C)

# (name, unit, better, workloads that run the layer, value(raw)).
# On a workload outside the list the layer is bypassed and the metric
# reads 0, as a layer counter does when nothing reaches it.
PER_LAYER = [
    ("support.plane_draws_per_s", "1/s", "higher", ALL,
     lambda r: r["plane_draws_per_s"]),
    ("support.plane_fill_ns_per_ball", "ns/ball", "lower", (L, T),
     _phase("plane_fill")),
    ("support.pool_batches", "count", "lower", ALL,
     lambda r: r["obs_pool_batches"]),
    ("support.pool_tasks", "count", "lower", ALL,
     lambda r: r["obs_pool_tasks"]),
    ("kernel.throw_ns_per_ball", "ns/ball", "lower", (L, T), _phase("throw")),
    ("kernel.commit_ns_per_ball", "ns/ball", "lower", (L, T),
     _phase("commit")),
    ("kernel.rescan_ns_per_ball", "ns/ball", "lower", (L, T),
     _phase("rescan")),
    ("kernel.seq_ns_per_ball", "ns/ball", "lower", ALL,
     lambda r: r["seq_ns_per_ball"]),
    ("kernel.seq_counter_ns_per_ball", "ns/ball", "lower", (L, T),
     lambda r: r["seq_counter_ns_per_ball"]),
    ("kernel.state_bytes_per_ball", "B/ball", "lower", ALL,
     lambda r: r["state_bytes"] / r["n"]),
    ("token.store_bytes_per_token", "B/token", "lower", (T,),
     lambda r: r["token_store_bytes"] / r["n"]),
    ("pipeline.epoch_wait_ns_per_ball", "ns/ball", "lower", (L, T),
     _phase("epoch_wait")),
    ("pipeline.fill_fraction", "frac", "higher", (L, T),
     lambda r: r["obs_fill_fraction"]),
    ("pipeline.barrier_wait_fraction", "frac", "lower", ALL,
     lambda r: r["obs_barrier_wait_fraction"]),
    ("pipeline.x1_ns_per_ball", "ns/ball", "lower", (L, T),
     lambda r: r["x1_ns_per_ball"]),
    ("pipeline.scaling_eff_x4", "frac", "higher", (L, T), _scaling),
    ("engine.trial_ms_p50", "ms", "lower", (C,), _trial_ms(0.5)),
    ("engine.trial_ms_p90", "ms", "lower", (C,), _trial_ms(0.9)),
    ("engine.trial_busy_frac", "frac", "higher", (C,), _busy),
    ("engine.rounds_per_trial_mean", "rounds", "lower", (C,),
     lambda r: r["rounds_mean"]),
    ("ckpt.snapshot_s", "s", "lower", (T,), lambda r: r["ckpt_snapshot_s"]),
    ("ckpt.encode_s", "s", "lower", (T,), lambda r: r["ckpt_encode_s"]),
    ("ckpt.persist_s", "s", "lower", (T,), lambda r: r["ckpt_persist_s"]),
    ("ckpt.bytes", "B", "lower", (T,), lambda r: r["ckpt_bytes"]),
    ("ckpt.persist_MBps", "MB/s", "higher", (T,),
     lambda r: r["ckpt_bytes"] / r["ckpt_persist_s"] / 1e6),
    ("ckpt.read_s", "s", "lower", (T,), lambda r: r["ckpt_read_s"]),
    ("ckpt.decode_s", "s", "lower", (T,), lambda r: r["ckpt_decode_s"]),
    ("ckpt.restore_s", "s", "lower", (T,), lambda r: r["ckpt_restore_s"]),
    ("ckpt.resume_s", "s", "lower", (T,), lambda r: r["resume_s"]),
    ("ckpt.wall_share", "frac", "lower", (T,),
     lambda r: sum(r["traced_ckpt_s"]) / r["traced_wall_s"]),
    ("ckpt.writes", "count", "higher", (T,),
     lambda r: r["obs_checkpoint_writes"]),
    ("ckpt.retries", "count", "lower", (T,),
     lambda r: r["obs_checkpoint_retries"]),
    ("ckpt.failures", "count", "lower", (T,),
     lambda r: r["obs_checkpoint_failures"]),
    ("mem.minor_faults_setup", "count", "lower", ALL,
     lambda r: r["minflt_setup"]),
    ("mem.minor_faults_timed", "count", "lower", ALL,
     lambda r: r["minflt_timed"]),
    ("mem.stream_triad_GBps", "GB/s", "higher", ALL,
     lambda r: r["triad_GBps"]),
    ("mem.computed_GBps", "GB/s", "higher", ALL, _computed),
    ("mem.bw_frac", "frac", "higher", ALL,
     lambda r: _computed(r) / r["triad_GBps"]),
    ("mem.llc_MiB", "MiB", "higher", ALL, _mib("llc_bytes")),
    ("mem.triad_array_MiB", "MiB", "higher", ALL, _mib("triad_array_bytes")),
    ("sys.vol_ctx_switches", "count", "lower", ALL,
     lambda r: r["nvcsw_timed"]),
    ("sys.invol_ctx_switches", "count", "lower", ALL,
     lambda r: r["nivcsw_timed"]),
    ("trace.overhead_frac", "frac", "lower", ALL, _overhead),
]


def per_layer(raw):
    """name -> (value, unit, note) of every per-layer metric."""
    out = {}
    for name, unit, _, workloads, fn in PER_LAYER:
        if raw["workload"] not in workloads:
            out[name] = (0, unit, "n/a: this workload bypasses the layer")
            continue
        value = fn(raw)
        if value is None:
            out[name] = (UNAVAILABLE, unit, "unavailable")
        else:
            out[name] = (value, unit, "")
    return out


def checks(raw):
    """Checks on the raw numbers: (attempted, [failure messages])."""
    failures = []
    attempted = 0

    def check(ok, what):
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    if raw["workload"] == C:
        bound = convergence_lower_bound(raw["n"], BETA)
        check(raw["rounds_min"] >= bound,
              "a trial converged in %d < n - beta log2 n = %d rounds"
              % (raw["rounds_min"], bound))
        if "trial_rounds" in raw:
            rounds = raw["trial_rounds"]
            total = round(raw["rounds_mean"] * raw["trials_done"])
            check(len(rounds) == raw["trials"] and min(rounds) >= 0,
                  "the traced sweep has timed-out trials")
            check(sum(rounds) == total and min(rounds) == raw["rounds_min"]
                  and max(rounds) == raw["rounds_max"],
                  "the traced sweep differs from run_convergence")
    if "triad_check" in raw:
        check(raw["triad_check"] == 7.0, "STREAM triad result is wrong")
    return attempted, failures
