"""Every suite end to end through the CLI: golden report values at a small
config, and byte-identical artifacts whatever the worker-thread count."""

import csv
import dataclasses
import json
import math
import os
import platform
import tracemalloc

import numpy as np
import pytest
import yaml

import oracles
from fracwick import (
    CylinderFunction,
    HurstParameter,
    PhiContext,
    StepFunction,
    TimeGrid,
    cli,
    empirical_covariance,
    svgplot,
    verify,
)
from fracwick.config import SUITE_NAMES, config_from_mapping
from fracwick.fbm import GENERATOR_NAMES, block_rows
from fracwick.grids import format_float, write_ensemble_csv
from fracwick.mc import MonteCarloReport, fmean, fsum
from fracwick import suites
from fracwick.suites import config_digest, write_report_csv
from fracwick.wick import _FORM_ROWS, isometry_check, isometry_kernels

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


# grid_n 256 puts block_rows(257) = 255 paths in a row block, so 600 paths
# make three blocks, the last one short
GENERATE_BLOCKS = {"grid_n": 256, "n_paths": 600, "master_seed": 5, "plots": True}


def test_generate_streams_the_whole_ensemble_artifacts(tmp_path, monkeypatch):
    # equality is taken before the assert, since a diff of two large
    # artifacts would take minutes to render
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(GENERATE_BLOCKS))
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("FRACWICK_THREADS", threads)
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / threads)]) == 0
    names = sorted(f for f in os.listdir(tmp_path / "1") if f.endswith((".csv", ".svg")))
    assert len(names) == 2 + 2 * len(GENERATOR_NAMES)
    for name in names:
        same = {(tmp_path / threads / name).read_bytes() for threads in ("1", "2", "4")}
        assert len(same) == 1, name

    # the same artifacts from the whole ensemble matrix
    n = GENERATE_BLOCKS["grid_n"]
    grid = TimeGrid.uniform(n, 1.0)
    rows = []
    for gen in GENERATOR_NAMES:
        vals = oracles.ensemble_matrix(gen, grid, HurstParameter(0.7), 5, GENERATE_BLOCKS["n_paths"])
        rows += [
            (n, MonteCarloReport.from_samples(f"{gen}:mean@T", vals[:, -1], 0.0)),
            (n, MonteCarloReport.from_samples(f"{gen}:variance@T", vals[:, -1] ** 2, 1.0)),
        ]
        write_ensemble_csv(grid, vals[:64], str(tmp_path / "paths.csv"))
        same = (tmp_path / "paths.csv").read_bytes() == (tmp_path / "1" / f"paths_{gen}.csv").read_bytes()
        assert same, f"paths_{gen}.csv"
        cov, _ = empirical_covariance(vals[:, 1 :: svgplot.heat_stride(n)])
        want = svgplot.heatmap(cov, f"empirical covariance ({gen})", "grid index")
        same = (tmp_path / "1" / f"covariance_{gen}.svg").read_text() == want
        assert same, f"covariance_{gen}.svg"
    write_report_csv(rows, str(tmp_path / "report.csv"))
    same = (tmp_path / "report.csv").read_bytes() == (tmp_path / "1" / "report.csv").read_bytes()
    assert same, "report.csv"


def test_generate_keeps_no_ensemble(tmp_path, monkeypatch):
    # the 1024 x 4000 ensemble is 32 MiB; generate keeps W_T and 64 rows,
    # and each worker one block of buffers (about 2.5 MiB here)
    monkeypatch.setenv("FRACWICK_THREADS", "1")
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("grid_n: 1024\nn_paths: 4000\ngenerators: [circulant]\n")
    tracemalloc.start()
    try:
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ensemble = 4000 * 1025 * 8
    assert peak < ensemble / 4, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "suite, extra", [("generate", {"generators": ["circulant"]}), ("verify-ito", {}), ("solve-sde", {})]
)
def test_grid_n_7112_is_uniform_enough_to_sample(tmp_path, suite, extra):
    # the first grid_n at horizon 1 whose linspace spacings differ by more
    # than a relative 1e-12 of the first
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"grid_n": 7112, "n_paths": 16, **extra}))
    assert cli.main([suite, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


# grid_n 1024 puts block_rows(1025) = 63 paths in a sampler block, and the
# isometry's blocks at their 128-row minimum, so 150 paths end every
# streamed suite on a short block
STREAMED = {"grid_n": 1024, "n_paths": 150, "master_seed": 7}
STREAMED_LADDER = (256, 512, 1024)
STREAMED_SUITES = ("verify-ito", "verify-product-rule", "verify-wentzell", "girsanov", "isometry", "converge")


def _streamed_config(suite):
    if suite == "converge":
        return {"grid_sizes": list(STREAMED_LADDER), "n_paths": STREAMED["n_paths"], "master_seed": 7}
    return STREAMED


@pytest.fixture(scope="module")
def streamed_runs(tmp_path_factory):
    """Output directory of every streamed suite at STREAMED, per thread count."""
    root = tmp_path_factory.mktemp("streamed")
    out = {}
    for threads in ("1", "2"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("FRACWICK_THREADS", threads)
            for suite in STREAMED_SUITES:
                cfg_path = root / f"{suite}.yaml"
                cfg_path.write_text(yaml.safe_dump(_streamed_config(suite)))
                outdir = root / threads / suite
                assert cli.main([suite, "--config", str(cfg_path), "--out", str(outdir)]) == 0
                out[threads, suite] = outdir
    return out


def _whole_matrix_reports(suite, w, ctx, grid):
    """The suite's reports with every check run once on the whole ensemble
    matrix w."""
    if suite == "girsanov":
        reports = [
            MonteCarloReport.from_paired(f"girsanov:{name}", *verify.girsanov_check(fn, g, w, ctx, grid=grid))
            for name, (fn, g) in verify.girsanov_case_registry(1.0).items()
        ]
        unit = StepFunction.constant(1.0, 1.0)
        eps = verify.exponential_mean_report(unit, w, ctx, grid=grid)
        return reports + [MonteCarloReport.from_samples("exponential-mean-one", eps, 1.0)]
    if suite == "isometry":
        integrands = {
            "step-const": StepFunction.constant(1.0, 1.0),
            "step-halves": verify.halves(1.0),
            "const": CylinderFunction.constant(1.0),
            "w": CylinderFunction.monomial(1),
            "w2": CylinderFunction.monomial(2),
        }
        kernels = isometry_kernels(grid, ctx)
        # the dense forms are matrix products whose accumulation order the
        # BLAS picks from the row count, so they run on the suite's blocks
        rows = max(block_rows(grid.n_intervals + 1), _FORM_ROWS)
        sides = {
            name: np.concatenate(
                [isometry_check(f, w[lo : lo + rows], ctx, grid=grid, kernels=kernels) for lo in range(0, len(w), rows)],
                axis=-1,
            )
            for name, f in integrands.items()
        }
        return [MonteCarloReport.from_paired(f"isometry:{name}", *v) for name, v in sides.items()]
    family = suite.removeprefix("verify-")
    registry = verify.case_registry(family)
    reports = []
    for name in verify.ITO_MEAN_ZERO_CASES if family == "ito" else registry:
        res, magnitude = verify.residual_block(family, registry[name], ctx, grid)(w)
        reports.append(MonteCarloReport.from_samples(f"{family}:{name}", res, 0.0, scale=fmean(magnitude)))
    return reports


def test_streamed_config_ends_on_a_short_block():
    n_paths = STREAMED["n_paths"]
    for rows in (block_rows(STREAMED["grid_n"] + 1), _FORM_ROWS):
        assert rows < n_paths and n_paths % rows


@pytest.mark.parametrize("suite", STREAMED_SUITES)
def test_streamed_report_is_the_same_under_one_and_two_threads(streamed_runs, suite):
    for name in ("report.csv", "ladder.csv") if suite == "converge" else ("report.csv",):
        one, two = (streamed_runs[threads, suite] / name for threads in ("1", "2"))
        assert one.read_bytes() == two.read_bytes(), f"{suite}/{name}"


@pytest.mark.parametrize("suite", [s for s in STREAMED_SUITES if s != "converge"])
def test_streamed_suite_equals_its_checks_on_the_whole_matrix(streamed_runs, tmp_path, suite):
    # every value but the isometry's dense forms is a function of its own
    # row, so the blocks the sampler hands the checks change no bit of any
    # report
    ctx = PhiContext(HurstParameter(0.7))
    grid = TimeGrid.uniform(STREAMED["grid_n"], 1.0)
    w = oracles.ensemble_matrix("circulant", grid, ctx.hurst, STREAMED["master_seed"], STREAMED["n_paths"])
    rows = [(STREAMED["grid_n"], r) for r in _whole_matrix_reports(suite, w, ctx, grid)]
    write_report_csv(rows, str(tmp_path / "report.csv"))
    same = (tmp_path / "report.csv").read_bytes() == (streamed_runs["1", suite] / "report.csv").read_bytes()
    assert same, suite


def test_streamed_ladder_equals_the_whole_matrix_rungs(streamed_runs):
    ctx = PhiContext(HurstParameter(0.7))
    fine = TimeGrid.uniform(STREAMED_LADDER[-1], 1.0)
    w = oracles.ensemble_matrix("circulant", fine, ctx.hurst, STREAMED["master_seed"], STREAMED["n_paths"])
    case = verify.case_registry("ito")["x2"]
    want = []
    for n in STREAMED_LADDER:
        stride = STREAMED_LADDER[-1] // n
        res, _ = verify.residual_block("ito", case, ctx, TimeGrid(fine.points[::stride]))(w[:, ::stride])
        want.append([str(n), format_float(math.sqrt(fsum(res * res) / res.size))])
    with open(streamed_runs["1", "converge"] / "ladder.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == want


@pytest.mark.parametrize(
    "suite, attrs",
    [("girsanov", ("girsanov_check", "exponential_mean_report")), ("isometry", ("isometry_check",))],
)
def test_streamed_checks_are_called_per_block_by_attribute(tmp_path, monkeypatch, suite, attrs):
    # a profiler wraps these attributes and names its spans by name=; 300
    # paths of 257 nodes are a 255-row block and a 45-row one
    calls = []
    for attr in attrs:

        def spy(*args, _attr=attr, _original=getattr(suites, attr), **kwargs):
            values = _original(*args, **kwargs)
            calls.append((kwargs.get("name", _attr), values.shape[-1]))
            return values

        monkeypatch.setattr(suites, attr, spy)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"grid_n": 256, "n_paths": 300}))
    assert cli.main([suite, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        names = [row["test_name"] for row in csv.DictReader(fh)]
    labels = [n if n != "exponential-mean-one" else "exponential_mean_report" for n in names]
    assert sorted(calls) == sorted((label, rows) for label in labels for rows in (255, 45))


def _traced_peak(tmp_path, suite, config) -> int:
    """tracemalloc's peak over one CLI run of suite, on one worker thread."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    tracemalloc.start()
    try:
        assert cli.main([suite, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_ito_keeps_no_ensemble(tmp_path, monkeypatch):
    # the 1024 x 2000 ensemble is 16 MiB; the checks see one 63-row block
    # (0.5 MiB) at a time, next to the sampler's buffers for it (2.5 MiB)
    # and their own block temporaries, about 5.5 MiB in all
    monkeypatch.setenv("FRACWICK_THREADS", "1")
    peak = _traced_peak(tmp_path, "verify-ito", {"grid_n": 1024, "n_paths": 2000})
    ensemble = 2000 * 1025 * 8
    assert peak < ensemble / 2, f"peak {peak / 2**20:.1f} MiB"


def test_isometry_keeps_no_ensemble(tmp_path, monkeypatch):
    # the kernels are the isometry's own n x n set-up; beyond them the
    # suite may hold 128-row blocks, not the 16 MiB ensemble
    monkeypatch.setenv("FRACWICK_THREADS", "1")
    grid = TimeGrid.uniform(1024, 1.0)
    tracemalloc.start()
    try:
        isometry_kernels(grid, PhiContext(HurstParameter(0.7)))
        kernels_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peak = _traced_peak(tmp_path, "isometry", {"grid_n": 1024, "n_paths": 2000})
    ensemble = 2000 * 1025 * 8
    budget = kernels_peak + ensemble / 4
    assert peak < budget, f"peak {peak / 2**20:.1f} MiB, kernels alone {kernels_peak / 2**20:.1f} MiB"
