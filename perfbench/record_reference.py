#!/usr/bin/env python3
"""Record reference.json: every report estimate of every workload invocation
for master seeds 0 .. N_REFERENCE_SEEDS-1.

    python3 perfbench/record_reference.py

Run it on a commit whose estimates are trusted. A later change may move an
estimate only within the recorded relative tolerance (rounding level);
anything larger is a changed result and fails the benchmark's check.
Rows whose verdict is 'fail' are recorded too, and listed under
verdict_failures: the benchmark still counts them as failed checks.
"""
from __future__ import annotations

import json
import os
import sys

import bench

# |estimate - reference| <= REL_TOL * max(1, |reference|). Float reordering
# over a 4096-cell grid and 20000 paths moves an estimate by about 1e-13;
# a different draw moves it by a standard error, 1e-6 or more.
REL_TOL = 1e-9


def main() -> int:
    env = bench.pinned_env()
    workdir = bench.make_workdir("reference-")
    out: dict = {
        "tolerance": {
            "rel": REL_TOL,
            "rule": "|estimate - reference| <= rel * max(1, |reference|)",
        },
        "workloads": {},
        "verdict_failures": [],
    }
    try:
        for workload, invocations in bench.WORKLOADS.items():
            per_invocation = []
            for i, (suite, config) in enumerate(invocations):
                by_seed = {}
                for seed in range(bench.N_REFERENCE_SEEDS):
                    outdir = os.path.join(workdir, f"{workload}_{i}_{seed}")
                    res = bench.run_child(
                        bench.cli_argv(suite, config, seed, outdir),
                        env,
                        600.0,
                        outdir + ".log",
                    )
                    report = os.path.join(outdir, "report.csv")
                    if res.exit_code not in (0, 1) or not os.path.exists(report):
                        print(res.log, file=sys.stderr)
                        raise SystemExit(f"{suite} {config} seed {seed}: exit {res.exit_code}")
                    rows = bench.read_report(report)
                    by_seed[str(seed)] = {r["test_name"]: float(r["estimate"]) for r in rows}
                    for r in rows:
                        if r["verdict"] != "pass":
                            out["verdict_failures"].append(
                                f"{workload} {suite} master seed {seed}: {r['test_name']} z={r['z']}"
                            )
                    print(f"{workload} {suite} seed {seed}: {len(rows)} rows, {res.wall_s:.1f}s, exit {res.exit_code}", flush=True)
                    bench.remove_workdir(outdir)
                per_invocation.append(by_seed)
            out["workloads"][workload] = per_invocation
    finally:
        bench.remove_workdir(workdir)
    with open(bench.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
