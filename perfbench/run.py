#!/usr/bin/env python3
"""Benchmark of the fracwick command-line suites, end to end and per layer.

    python3 perfbench/run.py --workload residuals --seed 1 --seconds 30 --trace 0

With --trace 0 the workload's CLI invocations run as child processes, one
at a time, in passes until --seconds is used up (at least two passes), and
the end-to-end metrics are medians over passes. With --trace 1 one untraced
pass runs, then an in-process traced replay of the same calls gives the
per-layer metrics. Every run checks exit codes, verdicts, estimates against
reference.json and byte-identity of repeated artifacts. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import statistics
import sys
import time

import bench

RUN_LIMIT_S = 170.0  # every run ends well inside three minutes
MIN_PASSES = 2  # the second pass is the byte-identity check of the first
# Set-up probes run in small rounds before every pass, so that their median
# samples the machine over the whole run rather than one moment of it.
PROBES_PER_PASS = 3
TRACE_PROBES = 5

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Run:
    """State of one benchmark run: environment, reference, checks, deadline."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.master_seed = bench.master_seed(seed)
        self.workdir = workdir
        self.env = bench.pinned_env()
        self.reference = bench.load_reference()
        self.rel_tol = float(self.reference["tolerance"]["rel"])
        self.tally = bench.Tally()
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def check_outputs(self, label: str, index: int, exit_code: int, outdir: str, log: str = "") -> dict:
        before = self.tally.failed
        expected = bench.expected_rows(self.reference, self.workload, index, self.seed)
        bench.check_invocation(self.tally, label, exit_code, outdir, expected, self.rel_tol)
        if self.tally.failed > before and log:
            sys.stderr.write(f"--- {label} output ---\n{log[-2000:]}\n")
        return bench.artifact_digests(outdir) if os.path.isdir(outdir) else {}

    def cli_pass(self, tag: str) -> tuple[float, float, float, list[dict]]:
        """One pass over the workload's invocations: wall, cpu, peak RSS and
        the digests of each invocation's reproducible artifacts."""
        wall = cpu = rss = 0.0
        digests = []
        for i, (suite, config) in enumerate(bench.WORKLOADS[self.workload]):
            outdir = os.path.join(self.workdir, f"{tag}_{i}")
            res = bench.run_child(
                bench.cli_argv(suite, config, self.master_seed, outdir),
                self.env,
                self.remaining(),
                os.path.join(self.workdir, f"{tag}_{i}.log"),
            )
            wall += res.wall_s
            cpu += res.cpu_s
            rss = max(rss, res.peak_rss_mb)
            digests.append(self.check_outputs(f"{tag} {suite}", i, res.exit_code, outdir, res.log))
            bench.remove_workdir(outdir)
        return wall, cpu, rss, digests

    def compare(self, tag: str, first: list[dict], again: list[dict]) -> None:
        for (suite, _), a, b in zip(bench.WORKLOADS[self.workload], first, again):
            bench.check_identical(self.tally, f"{tag} {suite}", a, b)

    def setup_probes(self, count: int) -> tuple[list[float], list[float], list[float]]:
        """Fresh interpreters importing the CLI; at least one must succeed,
        since set-up time is reported whatever else fails."""
        walls, imports, loads = [], [], []
        for k in range(count):
            got = bench.setup_probe(
                self.workload, self.env, self.remaining(), os.path.join(self.workdir, f"setup_{k}.log")
            )
            self.tally.check(got is not None, f"setup probe {k} failed")
            if got is not None:
                walls.append(got[0])
                imports.append(got[1]["import_s"])
                loads.append(got[1]["load_config_s"])
        if not walls:
            raise RuntimeError("every set-up probe failed; the package does not import")
        return walls, imports, loads


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, int]]:
    setup_walls, walls, cpus, rsss = [], [], [], []
    first = None
    while True:
        setup_walls += run.setup_probes(PROBES_PER_PASS)[0]
        wall, cpu, rss, digests = run.cli_pass(f"pass{len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        if first is None:
            first = digests
        else:
            run.compare(f"pass{len(walls) - 1}", first, digests)
        enough = len(walls) >= MIN_PASSES and sum(walls) + wall > seconds
        if enough or run.remaining() < 1.5 * wall:
            break
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "cpu_s": (statistics.median(cpus), len(cpus)),
        "peak_rss_mb": (statistics.median(rsss), len(rsss)),
        "setup_s": (statistics.median(setup_walls), len(setup_walls)),
    }


def per_layer(run: Run) -> tuple[dict[str, tuple[float, int]], dict[str, str]]:
    wall, cpu, _, untraced = run.cli_pass("untraced")
    _, imports, loads = run.setup_probes(TRACE_PROBES)

    # The replay runs in this process: one pool thread, one BLAS thread,
    # pinned before numpy is first imported.
    os.environ.update(bench.pinned_env(pool_threads=1))
    sys.path.insert(0, bench.SRC_DIR)
    import layers

    trace_path = os.path.join(bench.BENCH_DIR, "out", f"trace-{run.workload}-seed{run.seed}.json")
    metrics, replay_s, replays = layers.traced_run(run.workload, run.master_seed, run.workdir, trace_path)
    n = len(bench.WORKLOADS[run.workload])
    for k, (code, outdir) in enumerate(replays):
        digests = run.check_outputs(f"replay {os.path.basename(outdir)}", k % n, code, outdir)
        suite = bench.WORKLOADS[run.workload][k % n][0]
        bench.check_identical(run.tally, f"replay {suite} against the CLI", untraced[k % n], digests)

    metrics["cli.import_ms"] = statistics.median(imports) * 1e3
    metrics["config.load_config_ms"] = statistics.median(loads) * 1e3
    metrics["suites.parallel_ratio"] = cpu / wall
    metrics["trace.replay_s"] = replay_s
    metrics["trace.overhead_ratio"] = replay_s / wall
    units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
    samples = {"cli.import_ms": len(imports), "config.load_config_ms": len(loads)}
    out = {name: (metrics[name], samples.get(name, 1)) for name in units}
    return out, units


def describe_env(run: Run) -> dict:
    return {
        "nproc": bench.cpu_count(),
        "cpu": bench.cpu_model(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "FRACWICK_THREADS": run.env["FRACWICK_THREADS"],
        **{var: run.env[var] for var in bench.BLAS_THREAD_VARS},
        "seed": run.seed,
        "master_seed": run.master_seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_source = os.path.join(bench.SRC_DIR, "fracwick", "cli.py")
    if not os.path.isfile(cli_source):
        print(f"perfbench: no fracwick sources under {bench.SRC_DIR}", file=sys.stderr)
        return 2
    if not os.path.isfile(bench.REFERENCE_PATH):
        print(f"perfbench: missing {bench.REFERENCE_PATH}", file=sys.stderr)
        return 2

    workdir = bench.make_workdir(f"{args.workload}-")
    try:
        run = Run(args.workload, args.seed, workdir)
        print("env: " + json.dumps(describe_env(run), sort_keys=True))
        if args.trace:
            metrics, units = per_layer(run)
            kind = "traced replay"
        else:
            metrics = end_to_end(run, args.seconds)
            units = END_TO_END_UNITS
            kind = "passes"
    finally:
        bench.remove_workdir(workdir)

    tally = run.tally
    for problem in tally.problems[:20]:
        print(f"perfbench: FAILED check: {problem}", file=sys.stderr)
    for name, (value, count) in metrics.items():
        what = "probes" if name in ("setup_s", "cli.import_ms", "config.load_config_ms") else kind
        print(f"{name} = {value!r} {units[name]} (n={count} {what})")
    print(f"fail_ratio = {tally.failed}/{tally.attempted} = {tally.fail_ratio!r}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
