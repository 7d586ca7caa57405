#!/usr/bin/env python3
"""Null calibration of the paired z-score, too slow for the tier-1 tests.

    PYTHONPATH=src python3 scripts/calibrate_paired.py

Runs the isometry and girsanov suites at 256 cells and 2000 paths for
master seeds 1000-1199 and collects z of every paired row: the five
isometry checks and the four girsanov cases, 1800 draws of a statistic that
is close to standard normal when the identities hold. A |z| above 3 has
probability 0.0027 there, so more than 11 of them has probability below
1% (binomial tail). The script exits 1 when any |z| exceeds 4 or more than
11 exceed 3, and prints the rows past 3 either way.
"""
from __future__ import annotations

import csv
import os
import sys
import tempfile

from fracwick.config import config_from_mapping
from fracwick.suites import run_suite

SEEDS = range(1000, 1200)
SIZE = {"grid_n": 256, "n_paths": 2000}
SUITES = ("isometry", "girsanov")
MAX_ABS_Z = 4.0
TAIL_Z = 3.0
MAX_TAIL_ROWS = 11


def paired_z(suite: str, seed: int, outdir: str) -> list[tuple[str, float]]:
    """(row name, z) of the suite's paired rows, whose names carry its prefix."""
    run_suite(config_from_mapping(suite, {**SIZE, "master_seed": seed, "output_dir": outdir}))
    with open(os.path.join(outdir, "report.csv"), newline="") as fh:
        return [(row["test_name"], float(row["z"])) for row in csv.DictReader(fh) if row["test_name"].startswith(suite + ":")]


def main() -> int:
    draws = []
    with tempfile.TemporaryDirectory() as root:
        for seed in SEEDS:
            for suite in SUITES:
                draws += [(seed, name, z) for name, z in paired_z(suite, seed, os.path.join(root, suite))]
    tail = [(seed, name, z) for seed, name, z in draws if abs(z) > TAIL_Z]
    for seed, name, z in tail:
        print(f"master seed {seed}: {name} z = {z:+.3f}")
    worst = max(abs(z) for _, _, z in draws)
    ok = worst <= MAX_ABS_Z and len(tail) <= MAX_TAIL_ROWS
    print(
        f"{len(draws)} paired rows, {len(tail)} with |z| > {TAIL_Z:g} (at most {MAX_TAIL_ROWS}), "
        f"largest |z| {worst:.3f} (at most {MAX_ABS_Z:g}): {'pass' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
