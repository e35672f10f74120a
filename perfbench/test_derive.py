"""Unit tests of the benchmark's derived-metric code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import derive  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_of_128_leaves_12_beyond(self):
        values = list(range(1, 129))
        p90 = derive.percentile(values, 0.9)
        self.assertEqual(p90, 116)
        self.assertEqual(sum(1 for v in values if v > p90), 12)

    def test_p50_is_lower_median_for_even_counts(self):
        self.assertEqual(derive.percentile([4, 1, 3, 2], 0.5), 2)

    def test_unsorted_input_and_extremes(self):
        values = [5.0, 1.0, 9.0]
        self.assertEqual(derive.percentile(values, 1.0), 9.0)
        self.assertEqual(derive.percentile(values, 0.01), 1.0)

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            derive.percentile([], 0.5)
        with self.assertRaises(ValueError):
            derive.percentile([1.0], 0.0)


class FormulaTest(unittest.TestCase):
    def test_computed_bytes_counts_one_read_and_one_write(self):
        self.assertEqual(derive.computed_bytes_per_ball(1400, 100), 28.0)

    def test_computed_gbps_is_bytes_per_ns(self):
        self.assertAlmostEqual(derive.computed_gbps(28.0, 7.0), 4.0)

    def test_scaling_eff(self):
        self.assertAlmostEqual(derive.scaling_eff(24.0, 6.0, 4), 1.0)
        self.assertAlmostEqual(derive.scaling_eff(24.0, 8.0, 4), 0.75)

    def test_convergence_lower_bound(self):
        # n = 4096, beta = 4: 4096 - 4 * 12 = 4048 rounds.
        self.assertEqual(derive.convergence_lower_bound(4096, 4.0), 4048)
        # A fractional beta log2 n rounds the bound up.
        self.assertEqual(derive.convergence_lower_bound(1000, 4.0),
                         math.ceil(1000 - 4 * math.log2(1000)))
        # Tiny n where the threshold exceeds n: no constraint.
        self.assertEqual(derive.convergence_lower_bound(4, 4.0), 0)

    def test_quartile_spread(self):
        self.assertAlmostEqual(derive.quartile_spread([1, 2, 3, 4, 5]),
                               (4.5 - 1.5) / 3)


def raw_converge(**overrides):
    raw = {"workload": "converge_trials", "n": 4096, "trials": 4,
           "trials_done": 4, "timeouts": 0, "rounds_min": 6000,
           "rounds_max": 7000, "rounds_mean": 6500.0, "attempted": 4,
           "failures": []}
    raw.update(overrides)
    return raw


class ChecksTest(unittest.TestCase):
    def test_passing_sweep(self):
        attempted, failures = derive.checks(raw_converge())
        self.assertEqual(failures, [])
        self.assertEqual(attempted, 1)

    def test_lower_bound_violation_fails(self):
        _, failures = derive.checks(raw_converge(rounds_min=4000))
        self.assertEqual(len(failures), 1)

    def test_traced_vector_must_match_the_summary(self):
        good = raw_converge(trial_rounds=[6000, 6500, 6500, 7000])
        self.assertEqual(derive.checks(good)[1], [])
        bad = raw_converge(trial_rounds=[6000, 6400, 6500, 7000])
        self.assertEqual(len(derive.checks(bad)[1]), 1)


class PerLayerTest(unittest.TestCase):
    def test_bypassed_layers_read_zero_and_every_metric_is_present(self):
        raw = {"workload": "load_mega", "n": 8, "threads": 4,
               "plane_draws_per_s": 1e8, "obs_ns_plane_fill": 16,
               "obs_ns_throw": 8, "obs_ns_commit": 8, "obs_ns_rescan": 8,
               "obs_ns_epoch_wait": 8, "obs_pool_batches": 1,
               "obs_pool_tasks": 4, "obs_fill_fraction": 0.9,
               "obs_barrier_wait_fraction": 0.1, "traced_bin_rounds": 8,
               "traced_wall_s": 8e-9, "chunk_s": [1.0, 1.0, 1.0, 3.0],
               "chunk_bin_rounds": 1e9, "seq_ns_per_ball": 20.0,
               "seq_counter_ns_per_ball": 20.0, "x1_ns_per_ball": 24.0,
               "state_bytes": 112, "minflt_setup": 1, "minflt_timed": 2,
               "triad_GBps": 28.0, "llc_bytes": 0, "triad_array_bytes": 2**20,
               "nvcsw_timed": 3, "nivcsw_timed": 4}
        metrics = derive.per_layer(raw)
        self.assertEqual(len(metrics), len(derive.PER_LAYER))
        self.assertEqual(metrics["engine.trial_ms_p50"][0], 0)
        self.assertEqual(metrics["ckpt.resume_s"][0], 0)
        self.assertAlmostEqual(metrics["support.plane_fill_ns_per_ball"][0],
                               2.0)
        self.assertAlmostEqual(metrics["pipeline.scaling_eff_x4"][0], 6.0)
        self.assertEqual(metrics["mem.llc_MiB"],
                         (derive.UNAVAILABLE, "MiB", "unavailable"))
        self.assertAlmostEqual(metrics["trace.overhead_frac"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
