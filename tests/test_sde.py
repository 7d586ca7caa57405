"""Solvers against closed-form and cross-solver oracles, Picard's budget,
the row-block partition of an ensemble solve, and the linear-drift moment
oracle against an incomplete-gamma route."""

import csv
import tracemalloc

import numpy as np
import pytest
import yaml

import oracles
from fracwick import (
    DriftBlowupError,
    HurstParameter,
    NonConvergenceError,
    PhiContext,
    SdeSpec,
    StepFunction,
    TimeGrid,
    fou_oracle,
    make_fou,
    phi_norm_sq,
)
from fracwick import cli, fbm, sde, suites
from fracwick.mc import variance_stderr
from fracwick.sde import SOLVER_NAMES, solve, solve_picard

H = HurstParameter(0.7)


def _noise(n, n_paths, seed):
    grid = TimeGrid.uniform(n, 1.0)
    return grid, oracles.ensemble_matrix("circulant", grid, H, seed, n_paths)


def test_flow_euler_equals_direct_euler_for_nonlinear_drift():
    # with X = Y + sigma W the Euler recursion of the random ODE and the one
    # of the equation itself are the same arithmetic up to rounding, for any
    # drift in t and x
    spec = SdeSpec(
        drift=lambda t, x: np.sin(x) * (1.0 + t) - x, sigma=0.7, x0=0.3, lipschitz=3.0
    )
    grid, w = _noise(128, 16, 4)
    flow = solve(spec, grid, w, "flow-euler").x
    direct = oracles.direct_euler_row_major(spec, grid.points, w)
    assert np.max(np.abs(flow - direct)) <= 1e-12 * np.max(np.abs(direct))


ROW_MAJOR_REFERENCES = {
    "flow-euler": oracles.flow_euler_row_major,
    "flow-rk4": oracles.flow_rk4_row_major,
}


@pytest.mark.parametrize("solver", sorted(ROW_MAJOR_REFERENCES))
def test_time_major_cores_match_row_major_reference_bitwise(solver):
    # same arithmetic on contiguous node rows as on strided path columns;
    # the drift is nonlinear in x and depends on t
    spec = SdeSpec(
        drift=lambda t, x: np.sin(x) * (1.0 + t) - x * x * x, sigma=0.7, x0=0.3, lipschitz=3.0
    )
    grid, w = _noise(128, 24, 4)
    want = ROW_MAJOR_REFERENCES[solver](spec, grid.points, w)
    # the core yields one row per node; stacked, they are the node rows of Y
    got = np.stack(list(sde._STEPPERS[solver](spec, grid.points, np.ascontiguousarray(w.T))))
    np.testing.assert_array_equal(got.T, want)
    result = solve(spec, grid, w, solver)
    np.testing.assert_array_equal(result.x, want + spec.sigma * w)
    np.testing.assert_array_equal(result.y, want)


def _cubic_spec(x0):
    def drift(t, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.sin(x) * (1.0 + t) - x * x * x

    return SdeSpec(drift=drift, sigma=0.7, x0=x0, lipschitz=3.0)


@pytest.mark.parametrize("solver", sorted(ROW_MAJOR_REFERENCES))
def test_ensemble_stats_see_the_rows_of_the_path_solve_bitwise(solver, monkeypatch):
    # sde_mc_stats keeps X only at the checkpoints and the stream-0 path as
    # the core's rows go past; they are the nodes of the full solve. 600
    # paths at grid_n 256 fill the noise from three row blocks, and the
    # checkpoints take the first cell and the horizon.
    grid, w = _noise(256, 600, 9)
    spec = _cubic_spec(0.3)
    cps = np.array([grid.points[1], 0.5, 1.0])
    idx = [1, 128, 256]
    seen = []

    def spy(samples):
        seen.append(samples.copy())
        return variance_stderr(samples)

    monkeypatch.setattr(sde, "variance_stderr", spy)
    _, path0 = sde.sde_mc_stats(
        spec, grid, H, 9, 600, cps, (np.zeros(3), np.zeros(3)), solver=solver
    )
    want = solve(spec, grid, w, solver)
    np.testing.assert_array_equal(np.stack(seen), want.x[:, idx].T)
    for got, row in zip(path0, (want.x[0], want.y[0], w[0])):
        np.testing.assert_array_equal(got, row)


@pytest.mark.parametrize("solver", sorted(ROW_MAJOR_REFERENCES))
def test_drift_blowup_names_the_same_step_in_solve_and_ensemble_stats(solver):
    # explicit steps of 1/64 on x' = -x^3 + ... from x0 = 100 (dt x0^2 =
    # 156) overshoot by more at every step until the state overflows; both
    # consumers see the core's check at the same step
    grid, w = _noise(64, 40, 2)
    spec = _cubic_spec(100.0)
    with pytest.raises(DriftBlowupError) as by_solve:
        solve(spec, grid, w, solver)
    with pytest.raises(DriftBlowupError) as by_stats:
        sde.sde_mc_stats(spec, grid, H, 2, 40, np.array([1.0]), (np.zeros(1), np.zeros(1)), solver=solver)
    message = str(by_solve.value)
    assert message == str(by_stats.value)
    step = int(message.rsplit(" ", 1)[1])
    assert 1 < step < 64, message


@pytest.mark.parametrize("solver", sorted(ROW_MAJOR_REFERENCES))
def test_stepping_ensemble_stats_hold_no_state_matrix(solver, monkeypatch):
    # the time-major noise of 1024 x 4000 is 31 MiB; beyond it the solve
    # holds the sampler's one-thread block buffers (about 3.7 MiB whatever
    # the width, so a narrower ensemble could not meet this budget) and a
    # few state rows. A (nodes x paths) Y next to W reads about 2x.
    monkeypatch.setenv("FRACWICK_THREADS", "1")
    n, n_paths = 1024, 4000
    grid = TimeGrid.uniform(n, 1.0)
    cps = np.array([0.5, 1.0])
    tracemalloc.start()
    try:
        sde.sde_mc_stats(
            make_fou(1.0, 1.0, 1.0), grid, H, 3, n_paths, cps, (np.zeros(2), np.zeros(2)), solver=solver
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise = (n + 1) * n_paths * 8
    assert peak < 1.25 * noise, f"peak {peak / 2**20:.1f} MiB, noise {noise / 2**20:.1f} MiB"


def test_picard_matches_closed_form_trapezoid_for_linear_drift():
    # drift -lam x + c cos t: the trapezoid fixed point is a linear
    # recursion; 6 slabs at lam = 3, and t enters the drift as a row
    lam, c, tol = 3.0, 0.8, 1e-10
    spec = SdeSpec(
        drift=lambda t, x: -lam * x + c * np.cos(t), sigma=0.5, x0=1.0, lipschitz=lam
    )
    grid, w = _noise(120, 32, 3)
    result = solve_picard(spec, grid, w, tol)
    want = oracles.trapezoid_linear_drift(lam, c, 0.5, 1.0, grid.points, w)
    assert result.diagnostics["n_slabs"] == 6
    assert np.max(np.abs(result.x - want)) <= 10 * tol


def test_flow_rk4_is_fourth_order_for_piecewise_linear_noise():
    # noise linear between 4 knots, so the random ODE is smooth on every
    # cell of each refinement and RK4 keeps its classical order
    knots = np.linspace(0.0, 1.0, 5)
    rng = np.random.default_rng(5)
    w_knots = np.concatenate([np.zeros((16, 1)), rng.normal(size=(16, 4))], axis=1)
    exact = oracles.linear_drift_piecewise_linear_noise(2.0, 1.0, 1.0, knots, w_knots)[:, -1]
    spec = make_fou(2.0, 1.0, 1.0)
    errors = []
    for n in (8, 16, 32, 64):
        grid = TimeGrid.uniform(n, 1.0)
        w = np.stack([np.interp(grid.points, knots, row) for row in w_knots])
        errors.append(np.max(np.abs(solve(spec, grid, w, "flow-rk4").x[:, -1] - exact)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 3.8), f"observed orders {orders}"


@pytest.mark.parametrize("solver", SOLVER_NAMES)
def test_row_zero_of_an_ensemble_is_the_one_row_solve(solver):
    tol = 1e-10
    grid, w = _noise(64, 32, 6)
    spec = make_fou(1.0, 1.0, 1.0)
    many = solve(spec, grid, w, solver, tol)
    one = solve(spec, grid, w[:1], solver, tol)
    assert many.x.shape == w.shape and one.x.shape == (1, w.shape[1])
    if solver == "picard":
        # each Picard slab stops on the largest delta over the rows solved
        # together, so the one-row solve may stop sooner, below tol
        assert np.max(np.abs(many.x[0] - one.x[0])) <= tol
        assert np.max(np.abs(many.y[0] - one.y[0])) <= tol
    else:
        np.testing.assert_array_equal(many.x[0], one.x[0])
        np.testing.assert_array_equal(many.y[0], one.y[0])


def test_picard_iterations_follow_tol():
    grid, w = _noise(64, 16, 7)
    spec = make_fou(1.0, 1.0, 1.0)
    loose = solve_picard(spec, grid, w, 1e-6).iterations
    tight = solve_picard(spec, grid, w, 1e-10).iterations
    assert 0 < loose < tight


def test_solve_sde_solves_the_ensemble_once_at_the_config_tol(tmp_path, monkeypatch):
    # the dispatcher must reach solve_picard through the module, so that a
    # wrapper patched in there sees every solve
    calls = []
    original = sde.solve_picard

    def spy(spec, grid, w, tol):
        calls.append((w.shape[0], tol))
        return original(spec, grid, w, tol)

    monkeypatch.setattr(sde, "solve_picard", spy)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({"solver": "picard", "grid_n": 16, "n_paths": 8, "tol": 1e-6}))
    assert cli.main(["solve-sde", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == [(8, 1e-6)]


# grid_n 256 puts block_rows(257) = 255 paths in a row block, so 600 paths
# make three blocks, the last one short
BLOCKS_CFG = {"grid_n": 256, "n_paths": 600, "master_seed": 5, "checkpoints": [0.5, 1.0], "tol": 1e-10}


def _solve_sde(tmp_path, name, cfg):
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    return cli.main(["solve-sde", "--config", str(cfg_path), "--out", str(tmp_path / name)])


@pytest.mark.parametrize("solver", ["picard", "flow-rk4"])
def test_row_block_partition_keeps_bytes_across_thread_counts(tmp_path, monkeypatch, solver):
    assert BLOCKS_CFG["n_paths"] > 2 * fbm.block_rows(BLOCKS_CFG["grid_n"] + 1)
    cfg = dict(BLOCKS_CFG, solver=solver)
    blocks = {}
    original = sde.solve_picard

    def spy(spec, grid, w, tol):
        blocks[threads].append(w.shape[0])
        return original(spec, grid, w, tol)

    monkeypatch.setattr(sde, "solve_picard", spy)
    for threads in ("1", "4"):
        blocks[threads] = []
        monkeypatch.setenv("FRACWICK_THREADS", threads)
        assert _solve_sde(tmp_path, threads, cfg) == 0
    for name in ("report.csv", "solution_stream0.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes(), name
    # the grid alone fixes Picard's blocks
    want = [255, 255, 90] if solver == "picard" else []
    assert sorted(blocks["1"], reverse=True) == sorted(blocks["4"], reverse=True) == want


def test_picard_by_blocks_is_within_tol_of_one_whole_ensemble_solve(tmp_path):
    cfg = dict(BLOCKS_CFG, solver="picard")
    assert _solve_sde(tmp_path, "out", cfg) == 0
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        got = {row["test_name"]: float(row["estimate"]) for row in csv.DictReader(fh)}
    grid = TimeGrid.uniform(cfg["grid_n"], 1.0)
    w = oracles.ensemble_matrix("circulant", grid, H, cfg["master_seed"], cfg["n_paths"])
    whole = solve_picard(make_fou(1.0, 1.0, 1.0), grid, w, cfg["tol"])
    for t in cfg["checkpoints"]:
        samples = whole.x[:, int(np.searchsorted(grid.points, t))]
        assert abs(got[f"mean@t={t:g}"] - samples.mean()) <= cfg["tol"]
        assert abs(got[f"variance@t={t:g}"] - samples.var(ddof=1)) <= cfg["tol"]


@pytest.mark.parametrize("solver", ["picard", "flow-rk4"])
def test_drift_blowup_in_a_worker_block_exits_1_naming_the_solver(tmp_path, capsys, monkeypatch, solver):
    # dx = x^2 dt from x0 = 2 explodes at t = 1/2; both solvers overflow,
    # Picard inside the worker tasks that solve its blocks
    def square(t, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return x * x

    def riccati(lam, sigma, x0):
        return SdeSpec(drift=square, sigma=sigma, x0=2.0, lipschitz=1.0)

    monkeypatch.setattr(suites, "make_fou", riccati)
    monkeypatch.setenv("FRACWICK_THREADS", "2")
    assert _solve_sde(tmp_path, "out", dict(BLOCKS_CFG, solver=solver)) == 1
    err = capsys.readouterr().err
    assert f"DriftBlowupError: {solver} produced a non-finite value" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@pytest.mark.parametrize("sigma", [1.0e80, 1.0e200])
def test_large_sigma_runs_or_exits_2_naming_the_key(tmp_path, capsys, solver, sigma):
    # at 1e80 the fourth powers of the deviations overflow, the stderr does
    # not; at 1e200 the sample variance itself is past the float range
    cfg = {"solver": solver, "grid_n": 16, "n_paths": 8, "sde": {"sigma": sigma}}
    code = _solve_sde(tmp_path, "out", cfg)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if sigma == 1.0e80:
        assert code == 0
        with open(tmp_path / "out" / "report.csv", newline="") as fh:
            assert all(np.isfinite(float(row["stderr"])) for row in csv.DictReader(fh))
    else:
        assert code == 2
        assert "config error" in err and "sde.sigma" in err


def test_direct_euler_is_no_solver_and_exits_2(tmp_path, capsys):
    # the Euler recursion of the equation itself is flow-euler's arithmetic
    # up to rounding, so it is kept only as a test oracle
    assert _solve_sde(tmp_path, "out", {"solver": "direct-euler", "grid_n": 16, "n_paths": 8}) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'direct-euler'" in err
    assert "Traceback" not in err


def test_picard_refuses_a_slab_that_need_not_contract():
    # lam * dt / 2 = 1.25 on one cell: no budget can be derived
    grid, w = _noise(40, 2, 0)
    with pytest.raises(NonConvergenceError, match="contraction bound"):
        solve_picard(make_fou(100.0, 1.0, 1.0), grid, w, 1e-10)


@pytest.mark.parametrize("tol", [1.0e-10, 1.0e-20])
@pytest.mark.parametrize("grid_n", [51, 56])
def test_picard_budget_covers_slow_contraction(tmp_path, capsys, grid_n, tol):
    # one cell per slab contracting by q = lam * dt / 2 = 0.98 at grid_n 51
    # needs about 1200 iterations; tol 1e-20 lies below the rounding floor
    cfg = {
        "solver": "picard",
        "sde": {"lam": 100.0},
        "grid_n": grid_n,
        "n_paths": 2,
        "checkpoints": [1.0],
        "tol": tol,
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["solve-sde", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert "NonConvergenceError" not in capsys.readouterr().err


def test_variance_stderr_is_positive_in_small_samples():
    # at m = 2 the large-sample m4 - s^4 is always negative; the exact
    # finite-sample form (m4 + s^4) / m takes over
    assert variance_stderr(np.array([0.0, 2.0])) == pytest.approx(np.sqrt((1.0 + 4.0) / 2.0), rel=1e-15)
    x = np.random.default_rng(8).normal(size=2000)
    c = x - x.mean()
    s2 = np.sum(c**2) / 1999
    assert variance_stderr(x) == pytest.approx(np.sqrt((np.mean(c**4) - s2 * s2) / 2000), rel=1e-12)


def test_variance_stderr_scales_past_fourth_power_overflow():
    # (1e80)^4 overflows; the stderr of the scaled sample is 1e160 times
    x = np.random.default_rng(9).normal(size=500)
    assert variance_stderr(x * 1e80) == pytest.approx(variance_stderr(x) * 1e160, rel=1e-13)


# The step projection (2048 cells) is the oracle's only approximation. Its
# relative error, measured 3.1e-6 at H = 0.55 and at most 8.3e-8 at
# H = 0.7 and 0.9, grows as H approaches 1/2.
@pytest.mark.parametrize("h, rel", [(0.55, 1e-5), (0.7, 1e-6), (0.9, 1e-6)])
def test_fou_oracle_matches_incomplete_gamma(h, rel):
    times = np.array([0.5, 1.0])
    means, variances = fou_oracle(1.0, 1.0, 1.0, times, PhiContext(HurstParameter(h)))
    np.testing.assert_allclose(means, np.exp(-times), rtol=1e-15)
    for t, var in zip(times, variances):
        want = oracles.fou_variance_gammainc(1.0, 1.0, t, h)
        assert var == pytest.approx(want, rel=rel), f"H={h}, t={t}: {var} vs {want}"


@pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
def test_fou_oracle_matches_dense_phi_norm(h):
    # the Toeplitz lag-sum route against the dense rectangle quadratic form
    # on the same 2048-cell midpoint step projection
    ctx = PhiContext(HurstParameter(h))
    times = np.array([0.0, 0.5, 1.0])
    _, variances = fou_oracle(1.5, 0.8, 1.0, times, ctx)
    assert variances[0] == 0.0
    for t, var in zip(times[1:], variances[1:]):
        proj = StepFunction.from_callable(
            lambda s: np.exp(-1.5 * (t - s)), TimeGrid.uniform(2048, t)
        )
        want = 0.8 * 0.8 * phi_norm_sq(proj, ctx)
        assert var == pytest.approx(want, rel=1e-12), f"H={h}, t={t}: {var} vs {want}"
