"""Self-tests of the benchmark's own logic (not of fracwick).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import tracemalloc
import unittest

import bench
import layers


def write_report(outdir: str, rows: list[tuple[str, float, str]]) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write("test_name,n_paths,grid_n,estimate,oracle,stderr,z,verdict\n")
        for name, est, verdict in rows:
            fh.write(f"{name},10,8,{est!r},0,1,0,{verdict}\n")


class StatisticsTest(unittest.TestCase):
    def test_relative_spread_is_interquartile_over_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(q2, statistics.median(values))
        self.assertAlmostEqual(bench.relative_spread(values), (q3 - q1) / q2)
        # exclusive method on 1..9: quartiles at positions 2.5 and 7.5
        self.assertAlmostEqual(bench.relative_spread([float(v) for v in range(1, 10)]), (7.5 - 2.5) / 5.0)

    def test_master_seed_stays_in_the_recorded_range(self):
        seeds = {bench.master_seed(s) for s in range(-25, 250)}
        self.assertEqual(seeds, set(range(bench.N_REFERENCE_SEEDS)))
        self.assertEqual(bench.master_seed(13), bench.master_seed(13))


class ChildTest(unittest.TestCase):
    def test_peak_rss_is_per_child(self):
        env = dict(os.environ)
        with tempfile.TemporaryDirectory() as tmp:
            big = bench.run_child(
                [sys.executable, "-c", "b = bytearray(300 * 2**20); b[::4096] = b'x' * len(b[::4096])"],
                env, 60.0, os.path.join(tmp, "big.log"),
            )
            small = bench.run_child([sys.executable, "-c", "pass"], env, 60.0, os.path.join(tmp, "small.log"))
        self.assertEqual((big.exit_code, small.exit_code), (0, 0))
        self.assertGreater(big.peak_rss_mb, 250.0)
        # RUSAGE_CHILDREN would report the big child's peak here as well
        self.assertLess(small.peak_rss_mb, 100.0)
        self.assertGreater(big.cpu_s, 0.0)

    def test_exit_code_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            res = bench.run_child([sys.executable, "-c", "raise SystemExit(3)"], dict(os.environ), 60.0,
                                  os.path.join(tmp, "log"))
        self.assertEqual(res.exit_code, 3)


class CheckTest(unittest.TestCase):
    reference = {"a": 0.5, "b": 1e-18}

    def tally_for(self, rows, exit_code=0, write=True):
        tally = bench.Tally()
        with tempfile.TemporaryDirectory() as tmp:
            if write:
                write_report(tmp, rows)
            bench.check_invocation(tally, "t", exit_code, tmp, self.reference, 1e-9)
        return tally

    def test_all_pass(self):
        tally = self.tally_for([("a", 0.5, "pass"), ("b", 3e-18, "pass")])
        self.assertEqual((tally.attempted, tally.failed), (4, 0))
        self.assertEqual(tally.fail_ratio, 0.0)

    def test_fail_verdict_counts(self):
        tally = self.tally_for([("a", 0.5, "fail"), ("b", 1e-18, "pass")])
        self.assertEqual((tally.attempted, tally.failed), (4, 1))

    def test_estimate_off_reference_counts(self):
        tally = self.tally_for([("a", 0.5 + 1e-6, "pass"), ("b", 1e-18, "pass")])
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertIn("departs from reference", tally.problems[0])

    def test_nonzero_exit_fails_every_row(self):
        tally = self.tally_for([("a", 0.5, "pass"), ("b", 1e-18, "pass")], exit_code=1)
        self.assertEqual((tally.attempted, tally.failed), (2, 2))
        self.assertEqual(tally.fail_ratio, 1.0)

    def test_missing_report_fails_every_row(self):
        tally = self.tally_for([], write=False)
        self.assertEqual((tally.attempted, tally.failed), (2, 2))

    def test_missing_and_unknown_rows_fail(self):
        tally = self.tally_for([("a", 0.5, "pass"), ("c", 0.0, "pass")])
        self.assertEqual((tally.attempted, tally.failed), (4, 2))

    def test_tolerance_is_relative_above_one_absolute_below(self):
        self.assertTrue(bench.within_tolerance(1e6 + 1e-4, 1e6, 1e-9))
        self.assertFalse(bench.within_tolerance(1e6 + 1e-2, 1e6, 1e-9))
        self.assertTrue(bench.within_tolerance(5e-10, -4e-10, 1e-9))
        self.assertFalse(bench.within_tolerance(2e-9, 0.0, 1e-9))

    def test_byte_identity(self):
        tally = bench.Tally()
        bench.check_identical(tally, "t", {"r.csv": "x", "p.csv": "y"}, {"r.csv": "x", "p.csv": "y"})
        self.assertEqual((tally.attempted, tally.failed), (2, 0))
        bench.check_identical(tally, "t", {"r.csv": "x", "p.csv": "y"}, {"r.csv": "x", "p.csv": "z"})
        bench.check_identical(tally, "t", {"r.csv": "x"}, {})
        self.assertEqual((tally.attempted, tally.failed), (5, 2))

    def test_digests_cover_csv_artifacts_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_report(tmp, [("a", 0.5, "pass")])
            for name in ("paths_x.csv", "manifest.json", "resolved_config.json"):
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write(name)
            self.assertEqual(sorted(bench.artifact_digests(tmp)), ["paths_x.csv", "report.csv"])


class LayerTest(unittest.TestCase):
    def test_covered_counts_outermost_matching_descendants(self):
        spans = [
            layers.Span(0, None, "verify.ito_residuals.x2", 0.0, 10.0),
            layers.Span(1, 0, "phicalc.rect_weight_matrix", 1.0, 4.0),
            layers.Span(2, 1, "phicalc.rect_weight_matrix", 1.5, 2.0),
            layers.Span(3, 0, "wick.other", 5.0, 7.0),
            layers.Span(4, 3, "phicalc.rect_weight_matrix", 5.5, 6.0),
        ]
        children = {0: [1, 3], 1: [2], 3: [4], 2: [], 4: []}
        self.assertAlmostEqual(layers._covered(spans, children, spans[0], "phicalc.rect"), 3.5)

    def test_tracer_nests_spans_and_books_draws(self):
        tracer = layers.Tracer()
        inner = tracer.spanned("inner")(lambda: None)
        outer = tracer.spanned(lambda x: f"outer.{x}")(lambda x: inner())
        outer("a")
        self.assertEqual([(s.name, s.parent) for s in tracer.spans], [("outer.a", None), ("inner", 0)])

        class Draws:
            def __init__(self, n):
                self.size = n

        class Spec:
            def generator(self):
                return type("G", (), {"standard_normal": lambda self, n: Draws(n)})()

        gen = tracer.timed_generator(Spec.generator)(Spec())
        self.assertEqual(gen.standard_normal(5).size, 5)
        gen.standard_normal(3)
        self.assertEqual((tracer.rng_streams, tracer.rng_draws), (1, 8))

    def test_peak_tracker_hands_inner_peak_to_caller(self):
        tracker = layers.PeakTracker()

        @tracker.tracked("inner")
        def inner():
            block = bytearray(40 * 2**20)
            return len(block)

        @tracker.tracked("outer")
        def outer():
            keep = bytearray(10 * 2**20)
            inner()
            return len(keep)

        tracemalloc.start()
        try:
            outer()
        finally:
            tracemalloc.stop()
        self.assertGreater(tracker.peaks_mb["inner"], 39.0)
        self.assertLess(tracker.peaks_mb["inner"], 45.0)
        self.assertGreater(tracker.peaks_mb["outer"], 49.0)


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_names_match_the_harness(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        import run

        self.assertEqual(sorted(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))),
                         sorted(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(layers.LAYER_METRICS))

    def test_reference_covers_every_invocation_and_seed(self):
        ref = bench.load_reference()
        for workload, invocations in bench.WORKLOADS.items():
            self.assertEqual(len(ref["workloads"][workload]), len(invocations))
            for by_seed in ref["workloads"][workload]:
                self.assertEqual(sorted(by_seed, key=int), [str(s) for s in range(bench.N_REFERENCE_SEEDS)])


if __name__ == "__main__":
    unittest.main()
