"""Pathwise solvers for additive-noise equations via the flow transform.

With additive noise, subtracting the noise from the state turns the
equation into a random ODE per path: Y' = b(t, Y + sigma * W(t)) with
Y = X - sigma * W. Solvers integrate that ODE on the path grid; the noise
is only ever evaluated at nodes (plus linearly interpolated half-nodes for
the RK4 stages).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DriftBlowupError, NonConvergenceError
from .fbm import fgn_autocovariance
from .grids import SamplePath, TimeGrid
from .mc import MonteCarloReport, fmean, variance_stderr
from .phicalc import PhiContext

SOLVER_NAMES = ("flow-euler", "flow-rk4", "direct-euler", "picard")

# Contraction target per Picard slab: slab length chosen so slab * L <= this.
_SLAB_CONTRACTION = 0.5


@dataclass(frozen=True)
class SdeSpec:
    """dX = b(t, X) dt + sigma dW with declared regularity constants.

    The drift callable must be vectorized in x. lipschitz and growth are
    declared by the caller, never inferred.
    """

    drift: Callable[[float, np.ndarray], np.ndarray]
    sigma: float
    x0: float
    lipschitz: float
    growth: float
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("sigma", "x0", "lipschitz", "growth"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.lipschitz < 0 or self.growth < 0:
            raise ValueError("declared constants must be nonnegative")


def make_fou(lam: float, sigma: float, x0: float) -> SdeSpec:
    """Mean-reverting linear drift: b(t, x) = -lam * x."""
    if lam < 0:
        raise ValueError("mean-reversion rate must be nonnegative")
    return SdeSpec(
        drift=lambda t, x: -lam * x,
        sigma=sigma,
        x0=x0,
        lipschitz=lam,
        growth=lam,
        label=f"fou(lam={lam:g},sigma={sigma:g},x0={x0:g})",
    )


@dataclass(frozen=True)
class SolverResult:
    """Node values of the state X, its noise-free part Y, and diagnostics."""

    grid: TimeGrid
    x: np.ndarray
    y: np.ndarray
    solver: str
    iterations: int = 0
    final_delta: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def _check_finite(arr: np.ndarray, solver: str, step: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise DriftBlowupError(f"{solver} produced a non-finite value at step {step}")


def _flow_euler_core(spec: SdeSpec, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    y = np.empty_like(w)
    y[:, 0] = spec.x0
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        rate = spec.drift(t[k], y[:, k] + spec.sigma * w[:, k])
        y[:, k + 1] = y[:, k] + dt * np.asarray(rate)
        _check_finite(y[:, k + 1], "flow-euler", k + 1)
    return y


def _flow_rk4_core(spec: SdeSpec, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Classic RK4 on the random ODE; W at half-nodes by linear interpolation."""
    y = np.empty_like(w)
    y[:, 0] = spec.x0
    s = spec.sigma
    b = spec.drift
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        tk, tm, tn = t[k], t[k] + 0.5 * dt, t[k + 1]
        wk = w[:, k]
        wn = w[:, k + 1]
        wm = 0.5 * (wk + wn)
        yk = y[:, k]
        k1 = np.asarray(b(tk, yk + s * wk))
        k2 = np.asarray(b(tm, yk + 0.5 * dt * k1 + s * wm))
        k3 = np.asarray(b(tm, yk + 0.5 * dt * k2 + s * wm))
        k4 = np.asarray(b(tn, yk + dt * k3 + s * wn))
        y[:, k + 1] = yk + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(y[:, k + 1], "flow-rk4", k + 1)
    return y


def _direct_euler_core(spec: SdeSpec, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    x = np.empty_like(w)
    x[:, 0] = spec.x0
    dw = np.diff(w, axis=1)
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        rate = np.asarray(spec.drift(t[k], x[:, k]))
        x[:, k + 1] = x[:, k] + dt * rate + spec.sigma * dw[:, k]
        _check_finite(x[:, k + 1], "direct-euler", k + 1)
    return x


def _picard_core(
    spec: SdeSpec,
    t: np.ndarray,
    w: np.ndarray,
    tol: float,
    max_iter: int,
    initial_level: float | None,
) -> tuple[np.ndarray, int, float, list[list[float]]]:
    """Fixed-point iteration of the integral form, trapezoid quadrature.

    The horizon is split into slabs with slab_length * L <= 0.5 so the
    iteration contracts classically; each slab restarts from the previous
    slab's endpoint. Returns (y, total iterations, last delta, history).
    """
    horizon = t[-1] - t[0]
    lip = spec.lipschitz
    slab_len = horizon if lip * horizon <= _SLAB_CONTRACTION else _SLAB_CONTRACTION / lip
    y = np.empty_like(w)
    y[:, 0] = spec.x0
    s = spec.sigma
    total_iter = 0
    last_delta = 0.0
    history: list[list[float]] = []
    i0 = 0
    while i0 < t.size - 1:
        # widest slab [i0, i1] with t[i1] - t[i0] <= slab_len, at least one cell
        i1 = int(np.searchsorted(t, t[i0] + slab_len * (1.0 + 1e-12), side="right")) - 1
        i1 = max(i1, i0 + 1)
        ts = t[i0 : i1 + 1]
        ws = w[:, i0 : i1 + 1]
        dts = np.diff(ts)
        y0 = y[:, i0]
        cur = np.tile(
            (y0 if initial_level is None else np.full_like(y0, initial_level))[:, None],
            (1, ts.size),
        )
        deltas: list[float] = []
        for it in range(1, max_iter + 1):
            rates = np.empty_like(cur)
            for j in range(ts.size):
                rates[:, j] = np.asarray(spec.drift(ts[j], cur[:, j] + s * ws[:, j]))
            cells = 0.5 * (rates[:, :-1] + rates[:, 1:]) * dts
            nxt = np.empty_like(cur)
            nxt[:, 0] = y0
            np.cumsum(cells, axis=1, out=nxt[:, 1:])
            nxt[:, 1:] += y0[:, None]
            _check_finite(nxt, "picard", i0)
            delta = float(np.max(np.abs(nxt - cur)))
            deltas.append(delta)
            cur = nxt
            total_iter += 1
            if delta < tol:
                break
        else:
            raise NonConvergenceError(
                f"picard slab starting at t={t[i0]:.6g} still at delta="
                f"{deltas[-1]:.3e} after {max_iter} iterations (tol {tol:.1e})"
            )
        history.append(deltas)
        last_delta = deltas[-1]
        y[:, i0 : i1 + 1] = cur
        i0 = i1
    return y, total_iter, last_delta, history


def _solve_matrix(
    spec: SdeSpec,
    grid: TimeGrid,
    w: np.ndarray,
    solver: str,
    tol: float = 1e-10,
    max_iter: int = 200,
    initial_level: float | None = None,
) -> tuple[np.ndarray, np.ndarray, int, float, dict]:
    t = grid.points
    if solver == "flow-euler":
        y = _flow_euler_core(spec, t, w)
        return y + spec.sigma * w, y, 0, 0.0, {}
    if solver == "flow-rk4":
        y = _flow_rk4_core(spec, t, w)
        return y + spec.sigma * w, y, 0, 0.0, {}
    if solver == "direct-euler":
        x = _direct_euler_core(spec, t, w)
        return x, x - spec.sigma * w, 0, 0.0, {}
    if solver == "picard":
        y, iters, delta, history = _picard_core(spec, t, w, tol, max_iter, initial_level)
        diag = {"delta_history": history, "n_slabs": len(history)}
        return y + spec.sigma * w, y, iters, delta, diag
    raise ValueError(f"unknown solver {solver!r}; pick one of {SOLVER_NAMES}")


def solve_flow_transform(
    spec: SdeSpec, noise: SamplePath, stepper: str = "rk4"
) -> SolverResult:
    """Integrate the noise-free ODE along one path, then add the noise back."""
    if stepper not in ("euler", "rk4"):
        raise ValueError("stepper must be 'euler' or 'rk4'")
    solver = f"flow-{stepper}"
    x, y, _, _, _ = _solve_matrix(spec, noise.grid, noise.values[None, :], solver)
    return SolverResult(grid=noise.grid, x=x[0], y=y[0], solver=solver)


def solve_direct_euler(spec: SdeSpec, noise: SamplePath) -> SolverResult:
    """Left-endpoint Euler on the state itself; Y reported as X - sigma W."""
    x, y, _, _, _ = _solve_matrix(spec, noise.grid, noise.values[None, :], "direct-euler")
    return SolverResult(grid=noise.grid, x=x[0], y=y[0], solver="direct-euler")


def solve_picard(
    spec: SdeSpec,
    noise: SamplePath,
    tol: float = 1e-10,
    max_iter: int = 200,
    initial_level: float | None = None,
) -> SolverResult:
    """Contraction iteration of the integral equation, slab-restarted."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x, y, iters, delta, diag = _solve_matrix(
        spec, noise.grid, noise.values[None, :], "picard", tol, max_iter, initial_level
    )
    return SolverResult(
        grid=noise.grid,
        x=x[0],
        y=y[0],
        solver="picard",
        iterations=iters,
        final_delta=delta,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# mean/variance oracle for the linear (mean-reverting) case
# ---------------------------------------------------------------------------


def fou_oracle(
    lam: float,
    sigma: float,
    x0: float,
    times: np.ndarray,
    ctx: PhiContext,
    n_cells: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and norm-based variance of the linear-drift solution.

    mean(t) = x0 exp(-lam t); var(t) = sigma^2 ||exp(-lam(t-.))||^2_phi on
    [0, t], with the norm evaluated on an n_cells midpoint step projection
    (the oracle's only approximation; a doubled-resolution check belongs to
    the caller/test side). On the uniform projection grid the phi rectangle
    matrix is Toeplitz, dt^2H gamma(|i - j|) with gamma the unit fGn
    autocovariance, so the quadratic form needs only the lag sums
    sum_i f_i f_{i+k} of the levels f, not the n_cells x n_cells matrix.
    """
    ts = np.asarray(times, dtype=float)
    if np.any(ts < 0):
        raise ValueError("times must be nonnegative")
    means = x0 * np.exp(-lam * ts)
    variances = np.empty_like(ts)
    gamma = fgn_autocovariance(n_cells, ctx.hurst)
    for i, t in enumerate(ts):
        if t == 0.0:
            variances[i] = 0.0
            continue
        grid = TimeGrid.uniform(n_cells, t)
        f = np.exp(-lam * (t - 0.5 * (grid.points[:-1] + grid.points[1:])))
        lag_sums = np.correlate(f, f, "full")[n_cells - 1 :]
        quad = gamma[0] * lag_sums[0] + 2.0 * (gamma[1:] @ lag_sums[1:])
        variances[i] = sigma * sigma * (t / n_cells) ** (2.0 * ctx.h) * quad
    return means, variances


def sde_mc_stats(
    spec: SdeSpec,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    ctx: PhiContext,
    checkpoints: np.ndarray,
    oracle: tuple[np.ndarray, np.ndarray],
    solver: str = "flow-rk4",
    generator: str = "circulant",
) -> list[MonteCarloReport]:
    """Ensemble mean/variance at checkpoints against a supplied oracle."""
    from .fbm import ensemble_values

    cps = np.asarray(checkpoints, dtype=float)
    means_oracle, vars_oracle = oracle
    if cps.shape != np.shape(means_oracle) or cps.shape != np.shape(vars_oracle):
        raise ValueError("oracle curves must align with the checkpoints")
    idx = []
    for t in cps:
        j = int(np.searchsorted(grid.points, t))
        if j >= grid.points.size or grid.points[j] != t:
            raise ValueError(f"checkpoint t = {t} is not a grid point")
        idx.append(j)
    w = ensemble_values(generator, grid, ctx.hurst, master_seed, n_paths)
    x, _, _, _, _ = _solve_matrix(spec, grid, w, solver)
    reports = []
    for j, t, mu, var in zip(idx, cps, means_oracle, vars_oracle):
        samples = x[:, j]
        reports.append(
            MonteCarloReport.from_samples(f"mean@t={t:g}", samples, float(mu))
        )
        centered = samples - fmean(samples)
        s2 = float(np.sum(centered**2)) / (samples.size - 1)
        reports.append(
            MonteCarloReport.build(
                f"variance@t={t:g}",
                s2,
                float(var),
                variance_stderr(samples),
                samples.size,
            )
        )
    return reports
