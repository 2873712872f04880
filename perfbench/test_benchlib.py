"""Unit tests for the benchmark's statistics and seed plumbing.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


def raw_record(failed=0, check_failures=0):
    """A minimal harness record as perfbench_harness prints it."""
    return {
        "samples": {
            "setup_s": [3.0, 1.0, 2.0],
            "untraced.iter_items": [240, 240, 240],
            "untraced.iter_s": [2.0, 2.4, 2.2],
            "traced.iter_items": [240, 240],
            "traced.iter_s": [2.4, 2.4],
            "core.executor.execute_ms": [5.0, 7.0],
            "core.campaign.ms": [float(i) for i in range(240)],
        },
        "values": {"peak_rss_kb": 2048.0, "attempted": 5,
                   "failed": failed, "sim.core.runs": 1050},
        "texts": {},
        "checks": {"x": {"passed": 5 - check_failures,
                         "failed": check_failures, "detail": ""}},
    }


class StatisticsTest(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_acceptance_statistic(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(benchlib.quartiles(values),
                         statistics.quantiles(values, n=4))
        self.assertEqual(benchlib.quartiles([4.0, 1.0, 3.0, 2.0]),
                         [1.25, 2.5, 3.75])
        self.assertEqual(benchlib.quartiles([7.0]), [7.0, 7.0, 7.0])

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(benchlib.percentile(values, 50), 50.5)
        self.assertAlmostEqual(benchlib.percentile(values, 99), 99.01)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)
        self.assertEqual(benchlib.percentile(values, 0), 1)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_samples_beyond_a_percentile(self):
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(benchlib.samples_beyond(999, 99), 9)
        self.assertEqual(benchlib.samples_beyond(200, 95), 10)
        self.assertEqual(benchlib.samples_beyond(20, 50), 10)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertAlmostEqual(
            benchlib.tail_percentile(list(range(1000)), 99), 989.01)
        self.assertEqual(benchlib.tail_percentile(list(range(20)), 50), 9.5)
        for count, p in ((999, 99), (199, 95), (19, 50)):
            with self.assertRaises(ValueError):
                benchlib.tail_percentile(list(range(count)), p)

    def test_pass_sizes_support_their_named_percentiles(self):
        # Kernel pass: 5 reps x 10 workloads x 21 voltages; campaign
        # pass: 3 chips x 8 cells x 10 campaigns (perfbench/harness).
        self.assertGreaterEqual(benchlib.samples_beyond(5 * 10 * 21, 99), 10)
        self.assertGreaterEqual(benchlib.samples_beyond(3 * 8 * 10, 95), 10)


class SeedPlumbingTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in benchlib.WORKLOAD_UNITS:
            self.assertEqual(benchlib.derive_inputs(workload, 7),
                             benchlib.derive_inputs(workload, 7))

    def test_different_seeds_give_different_inputs(self):
        seen = {tuple(benchlib.derive_inputs("governor_soak", seed))
                for seed in range(50)}
        self.assertEqual(len(seen), 50)

    def test_serials_are_valid_chip_serials(self):
        for seed in range(200):
            args = benchlib.derive_inputs("fleet_sweep", seed)
            chips = args[args.index("--fleet-chips") + 1].split(",")
            chips.append(args[args.index("--chip") + 1])
            for spec in chips:
                corner, serial = spec.split(":")
                self.assertIn(corner, ("TTT", "TFF", "TSS"))
                self.assertTrue(1 <= int(serial) <= 99)

    def test_seed_inputs_do_not_depend_on_the_workload(self):
        sweep = benchlib.derive_inputs("fleet_sweep", 3)
        soak = benchlib.derive_inputs("governor_soak", 3)
        self.assertEqual(sweep, soak)

    def test_only_the_default_seed_pins_the_fleet_hash(self):
        for workload in ("fleet_sweep", "fleet_rederive"):
            args = benchlib.derive_inputs(workload, benchlib.DEFAULT_SEED)
            self.assertEqual(args[args.index("--expect-fleet-hash") + 1],
                             benchlib.PINNED_FLEET_HASH)
            self.assertNotIn("--expect-fleet-hash",
                             benchlib.derive_inputs(workload, 2))
        for workload in ("predict_rfe", "governor_soak"):
            self.assertNotIn(
                "--expect-fleet-hash",
                benchlib.derive_inputs(workload, benchlib.DEFAULT_SEED))

    def test_only_the_default_seed_sweep_pins_the_kernel_hash(self):
        args = benchlib.derive_inputs("fleet_sweep", benchlib.DEFAULT_SEED)
        self.assertEqual(args[args.index("--expect-kernel-hash") + 1],
                         benchlib.PINNED_KERNEL_HASH)
        self.assertNotIn("--expect-kernel-hash",
                         benchlib.derive_inputs("fleet_sweep", 2))
        for workload in ("fleet_rederive", "predict_rfe", "governor_soak"):
            self.assertNotIn(
                "--expect-kernel-hash",
                benchlib.derive_inputs(workload, benchlib.DEFAULT_SEED))

    def test_default_seed_inputs_are_pinned(self):
        # The pinned fleet hash belongs to these chips: changing the
        # derivation invalidates it.
        args = benchlib.derive_inputs("fleet_sweep", benchlib.DEFAULT_SEED)
        self.assertEqual(args[:4], ["--fleet-chips", "TTT:95,TFF:34,TSS:50",
                                    "--chip", "TTT:62"])

    def test_unknown_workload_is_refused(self):
        with self.assertRaises(ValueError):
            benchlib.derive_inputs("nope", 1)


class ResultTest(unittest.TestCase):
    def test_untraced_result_has_the_end_to_end_metrics(self):
        result = benchlib.result_line(raw_record(), trace=0)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (5, 0))
        metrics = result["metrics"]
        self.assertAlmostEqual(metrics["throughput_per_s"]["value"],
                               240 / 2.2)
        self.assertEqual(metrics["setup_s"]["value"], 2.0)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 2.0)

    def test_traced_result_fills_unexercised_layers_with_zero(self):
        metrics = benchlib.result_line(raw_record(), trace=1)["metrics"]
        self.assertEqual(metrics["core.executor.execute_ms"]["value"], 6.0)
        self.assertEqual(metrics["sim.core.runs"]["value"], 1050)
        self.assertEqual(metrics["core.campaign.ms_n"]["value"], 240)
        self.assertEqual(metrics["core.predictor.evaluate_n"]["value"], 0)
        self.assertEqual(metrics["core.predictor.evaluate_ms_p50"]["value"],
                         0)
        self.assertAlmostEqual(metrics["obs.overhead_pct"]["value"],
                               (240 / 2.2) / (240 / 2.4) * 100 - 100)
        self.assertEqual(metrics["checks.failed_ratio"]["value"], 0.0)

    def test_failures_make_the_result_incorrect(self):
        result = benchlib.result_line(raw_record(failed=1), trace=1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"]["checks.failed_ratio"]["value"],
                         0.2)
        self.assertFalse(
            benchlib.result_line(raw_record(check_failures=1),
                                 trace=0)["correct"])

    def test_benchmark_json_names_every_emitted_metric(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = benchlib.result_line(raw_record(), trace=0)["metrics"]
        layers = benchlib.result_line(raw_record(), trace=1)["metrics"]
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(e2e))
        self.assertEqual({m["name"] for m in spec["per_layer"]},
                         set(layers))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            emitted = e2e.get(metric["name"]) or layers[metric["name"]]
            self.assertEqual(metric["unit"], emitted["unit"])
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(benchlib.WORKLOAD_UNITS))


if __name__ == "__main__":
    unittest.main()
