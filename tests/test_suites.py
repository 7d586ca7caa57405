"""Every suite end to end through the CLI: golden report values at a small
config, and byte-identical artifacts whatever the worker-thread count."""

import csv
import dataclasses
import json
import os
import platform

import numpy as np
import pytest
import yaml

from fracwick import cli
from fracwick.config import SUITE_NAMES, config_from_mapping
from fracwick.suites import config_digest

SMALL = {"grid_n": 64, "n_paths": 256, "master_seed": 0, "plots": True}
CONVERGE_SMALL = {"grid_sizes": [16, 32, 64], "n_paths": 256, "master_seed": 0, "plots": True}

# Estimates must agree to 1e-9 * max(1, |golden|), the rule of
# perfbench/reference.json, and verdicts exactly. Never widen this
# tolerance: a refactor may move an estimate only at rounding level, and a
# change of law or of draw layout must show up here.
REL_TOL = 1e-9

# (test_name, estimate, verdict) per row of report.csv at SMALL
# (CONVERGE_SMALL for converge) with every other key at its default.
GOLDENS = {
    "generate": [
        ("cholesky:mean@T", 0.09942056482920977, "pass"),
        ("cholesky:variance@T", 0.9774508061798711, "pass"),
        ("circulant:mean@T", 0.0644507050181682, "pass"),
        ("circulant:variance@T", 1.1206389003007151, "pass"),
        ("hosking:mean@T", 0.09942056482920977, "pass"),
        ("hosking:variance@T", 0.9774508061798687, "pass"),
    ],
    "verify-ito": [
        ("ito:x1", -1.951563910473908e-18, "pass"),
        ("ito:x2", 0.00013435438135805833, "pass"),
        ("ito:x2-step", 0.0009793631621112318, "pass"),
        ("ito:x3", -0.002829337212723933, "pass"),
        ("ito:sin", -3.884341630249223e-05, "pass"),
    ],
    "verify-product-rule": [
        ("product-rule:ww", 0.00013435438135804445, "pass"),
        ("product-rule:w-const", 1.6757699828479078e-17, "pass"),
        ("product-rule:affine", 0.00014270536062226916, "pass"),
        ("product-rule:step", 0.0010084785212374485, "pass"),
    ],
    "verify-wentzell": [
        ("wentzell:xw", 0.00013435438135805833, "pass"),
        ("wentzell:deterministic", 1.1102230246251565e-15, "pass"),
        ("wentzell:constant", 0.0, "pass"),
        ("wentzell:quad", 0.00045530129829183586, "pass"),
    ],
    "girsanov": [
        ("girsanov:w", 1.0644507050181682, "pass"),
        ("girsanov:w2", 2.2495403103370517, "pass"),
        ("girsanov:expw", 2.8830247963005027, "pass"),
        ("girsanov:zero", 0.0644507050181682, "pass"),
        ("exponential-mean-one", 1.0606055509464403, "pass"),
    ],
    "isometry": [
        ("isometry:step-const", 1.1206389003007151, "pass"),
        ("isometry:step-halves", 0.6764831574545959, "pass"),
        ("isometry:const", 1.1206389003007151, "pass"),
        ("isometry:w", 0.4274338694906806, "pass"),
        ("isometry:w2", 0.48557854395450023, "pass"),
    ],
    "solve-sde": [
        ("mean@t=0.5", 0.624627436803529, "pass"),
        ("variance@t=0.5", 0.26166215934597414, "pass"),
        ("mean@t=1", 0.40749597953456645, "pass"),
        ("variance@t=1", 0.45762308061985774, "pass"),
    ],
    "converge": [
        ("converge:ito:x2:n=16", 0.13651145950789567, "pass"),
        ("converge:ito:x2:n=32", 0.07566126216714218, "pass"),
        ("converge:ito:x2:n=64", 0.04137379132862252, "pass"),
        ("converge:ito:x2:slope", -0.861116496143274, "pass"),
    ],
}

THREAD_COUNTS = ("1", "4")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Output directory of every suite at SMALL, per FRACWICK_THREADS value."""
    root = tmp_path_factory.mktemp("suites")
    out = {}
    for threads in THREAD_COUNTS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("FRACWICK_THREADS", threads)
            for suite in SUITE_NAMES:
                cfg_path = root / f"{suite}.yaml"
                cfg_path.write_text(yaml.safe_dump(CONVERGE_SMALL if suite == "converge" else SMALL))
                outdir = root / threads / suite
                assert cli.main([suite, "--config", str(cfg_path), "--out", str(outdir)]) == 0
                out[threads, suite] = outdir
    return out


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_report_matches_golden(runs, suite):
    with open(runs["1", suite] / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["test_name"] for r in rows] == [name for name, _, _ in GOLDENS[suite]]
    for row, (name, want, verdict) in zip(rows, GOLDENS[suite]):
        got = float(row["estimate"])
        assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), f"{name}: {got!r} != {want!r}"
        assert row["verdict"] == verdict, name


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_artifacts_identical_across_thread_counts(runs, suite):
    one, four = runs["1", suite], runs["4", suite]
    names = sorted(f for f in os.listdir(one) if f.endswith((".csv", ".svg")))
    assert names == sorted(f for f in os.listdir(four) if f.endswith((".csv", ".svg")))
    assert "report.csv" in names and "zscores.svg" in names
    for name in names:
        assert (one / name).read_bytes() == (four / name).read_bytes(), f"{suite}/{name}"


def test_config_digest_ignores_output_dir_and_plots():
    base = config_from_mapping("generate", {"grid_n": 16})
    moved = dataclasses.replace(base, output_dir="elsewhere", plots=not base.plots)
    assert config_digest(moved) == config_digest(base)
    assert config_digest(dataclasses.replace(base, master_seed=1)) != config_digest(base)


def test_manifest_records_threads_and_versions(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACWICK_THREADS", "3")
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("grid_n: 16\nn_paths: 8\n")
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["threads"] == 3
    assert manifest["numpy"] == np.__version__
    assert manifest["python"] == platform.python_version()
    want = config_digest(config_from_mapping("generate", {"grid_n": 16, "n_paths": 8}))
    assert manifest["config_sha256"] == want


def test_isometry_passes_at_master_seed_3_of_the_benchmark_config(tmp_path):
    # isometry:w2 read z = -4.18 here under the plain paired t; its paired
    # differences are skewed, and the empirical likelihood z reads -3.12
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"grid_n": 2048, "n_paths": 2000, "master_seed": 3}))
    assert cli.main(["isometry", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
