"""Shared pieces of the fracwick benchmark: workloads, pinned environment,
child processes measured through wait4, statistics and output checks.

Standard library only, so the harness itself adds nothing to what it
measures; numpy is imported by the children and by the traced run alone.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
WORK_DIR = os.path.join(BENCH_DIR, "work")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# Each workload is a fixed sequence of CLI invocations (suite, config file).
# Why each one exists is written down in README.md next to this file.
WORKLOADS: dict[str, tuple[tuple[str, str], ...]] = {
    "residuals": (
        ("verify-ito", "residuals_ito.yaml"),
        ("verify-wentzell", "residuals_wentzell.yaml"),
    ),
    "ensemble": (
        ("generate", "ensemble_circulant.yaml"),
        ("generate", "ensemble_cholesky_hosking.yaml"),
    ),
    "sde": (
        ("solve-sde", "sde_picard.yaml"),
        ("solve-sde", "sde_flow_rk4.yaml"),
    ),
    "moments": (
        ("isometry", "moments_isometry.yaml"),
        ("girsanov", "moments_girsanov.yaml"),
    ),
}

# The harness seed selects one of this many master seeds, all of which have
# estimates recorded in reference.json, so every run can be checked against
# the reference whatever seed it is given.
N_REFERENCE_SEEDS = 10

def reproducible_artifacts(outdir: str) -> list[str]:
    """Artifacts that suites.py promises to be byte-reproducible for one
    config. manifest.json (timestamp, wall clock) and resolved_config.json
    (holds the output directory) are left out on purpose."""
    return sorted(f for f in os.listdir(outdir) if f.endswith(".csv"))


def master_seed(seed: int) -> int:
    return seed % N_REFERENCE_SEEDS


def config_path(name: str) -> str:
    return os.path.join(WORKLOAD_DIR, name)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pinned_env(pool_threads: int | None = None) -> dict[str, str]:
    """Environment for every child: pool threads times BLAS threads is at
    most the number of usable cores, and Python finds the package in src/."""
    env = dict(os.environ)
    threads = pool_threads if pool_threads is not None else min(2, cpu_count())
    env["FRACWICK_THREADS"] = str(threads)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC_DIR
    env["PYTHONHASHSEED"] = "0"
    os.makedirs(WORK_DIR, exist_ok=True)
    env["TMPDIR"] = WORK_DIR
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    log: str


def run_child(argv: list[str], env: dict[str, str], timeout: float, log_path: str) -> ChildResult:
    """Run one child to completion and read its own rusage through wait4.

    RUSAGE_CHILDREN would keep the largest peak RSS of every child ever
    reaped, so a small invocation after a large one would inherit its peak.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=proc.returncode,
        log=text,
    )


def cli_args(suite: str, config: str, seed: int, outdir: str) -> list[str]:
    """Arguments of one workload invocation, as `fracwick.cli.main` takes them."""
    return [suite, "--config", config_path(config), "--seed", str(seed), "--out", outdir]


def cli_argv(suite: str, config: str, seed: int, outdir: str) -> list[str]:
    return [sys.executable, "-m", "fracwick.cli", *cli_args(suite, config, seed, outdir)]


_SETUP_PROBE = """\
import sys, time, json
t0 = time.perf_counter()
import fracwick.cli
from fracwick import config
t1 = time.perf_counter()
for suite, path in zip(sys.argv[1::2], sys.argv[2::2]):
    config.load_config(path, suite)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1}))
"""


def setup_probe(workload: str, env: dict[str, str], timeout: float, log_path: str):
    """Fresh interpreter that imports the CLI and loads the workload's YAML.

    Returns (wall seconds of the whole child, its own import and load
    timings) or None when the child failed.
    """
    argv = [sys.executable, "-c", _SETUP_PROBE]
    for suite, config in WORKLOADS[workload]:
        argv += [suite, config_path(config)]
    res = run_child(argv, env, timeout, log_path)
    if res.exit_code != 0:
        return None
    try:
        inner = json.loads(res.log.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    return res.wall_s, inner


def make_workdir(prefix: str) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_report(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def within_tolerance(estimate: float, reference: float, rel_tol: float) -> bool:
    return abs(estimate - reference) <= rel_tol * max(1.0, abs(reference))


@dataclass
class Tally:
    """Checks attempted and failed, with a line per failure for the log."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_invocation(
    tally: Tally,
    label: str,
    exit_code: int,
    outdir: str,
    expected: dict[str, float],
    rel_tol: float,
) -> None:
    """Count one invocation's checks: one per expected report row.

    Every row of an invocation that exits non-zero or writes no report
    fails; otherwise a row fails on a 'fail' verdict, on being absent, or on
    an estimate that departs from the reference beyond rounding level. A row
    the reference does not know fails too.
    """
    report_path = os.path.join(outdir, "report.csv")
    if exit_code != 0 or not os.path.exists(report_path):
        why = f"exit {exit_code}" if exit_code != 0 else "no report.csv"
        for name in expected:
            tally.check(False, f"{label}: {name}: {why}")
        return
    rows = {row["test_name"]: row for row in read_report(report_path)}
    for name, ref in expected.items():
        row = rows.get(name)
        if row is None:
            tally.check(False, f"{label}: {name}: missing from report.csv")
            continue
        tally.check(row["verdict"] == "pass", f"{label}: {name}: verdict {row['verdict']}")
        est = float(row["estimate"])
        tally.check(
            within_tolerance(est, ref, rel_tol),
            f"{label}: {name}: estimate {est!r} departs from reference {ref!r}",
        )
    for name in rows.keys() - expected.keys():
        tally.check(False, f"{label}: {name}: not in the reference")


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digests(outdir: str) -> dict[str, str]:
    return {
        name: file_digest(os.path.join(outdir, name))
        for name in reproducible_artifacts(outdir)
    }


def check_identical(tally: Tally, label: str, first: dict[str, str], again: dict[str, str]) -> None:
    """One check per artifact: a repeat of one config must match byte for byte."""
    for name in sorted(first.keys() | again.keys()):
        tally.check(
            first.get(name) is not None and first.get(name) == again.get(name),
            f"{label}: {name} differs between repeats of one config",
        )


def expected_rows(reference: dict, workload: str, index: int, seed: int) -> dict[str, float]:
    return reference["workloads"][workload][index][str(master_seed(seed))]
