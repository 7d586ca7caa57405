"""Pathwise solvers for additive-noise equations via the flow transform.

With additive noise, subtracting the noise from the state turns the
equation into a random ODE per path: Y' = b(t, Y + sigma * W(t)) with
Y = X - sigma * W. Solvers integrate that ODE on the path grid; the noise
is only ever evaluated at nodes (plus linearly interpolated half-nodes for
the RK4 stages).

Every solver takes a batch of paths and steps or iterates all of them at
once; one path is a batch of one. The stepping solvers (flow-euler,
flow-rk4) run on time-major noise, one row per node, so a step reads
contiguous rows, and a path's solution depends only on that path's noise,
bit for bit. Each stepping core yields the state rows Y_0, Y_1, ... as it
goes and holds only the current one: `solve` stacks them, `sde_mc_stats`
keeps X at the checkpoints and path 0. Picard iterates a (paths x nodes)
block and stops each slab on the largest delta over the block's rows, so
below tol a path's solution depends on the paths it shares a block with.
`sde_mc_stats` solves an ensemble over a partition into row blocks that
the grid alone fixes (`fbm.block_rows`): a path's solution depends on
that partition, never on the thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DriftBlowupError, NonConvergenceError, VarianceOverflowError
from .fbm import HurstParameter, _lift_heap_thresholds, ensemble_values, fgn_autocovariance
from .grids import TimeGrid
from .mc import MonteCarloReport, fmean, variance_stderr
from .phicalc import PhiContext

SOLVER_NAMES = ("flow-euler", "flow-rk4", "picard")

# Contraction target per Picard slab: slab length chosen so slab * L <= this.
_SLAB_CONTRACTION = 0.5
# Picard iterations allowed beyond the count the contraction bound predicts.
_PICARD_MARGIN = 5
# Rounding floor of one Picard step, in units of eps * max|y|.
_ROUNDING_ULPS = 16
_EPS = float(np.finfo(float).eps)
# Cells of the step projection behind fou_oracle's variance.
ORACLE_CELLS = 2048


@dataclass(frozen=True)
class SdeSpec:
    """dX = b(t, X) dt + sigma dW with declared regularity constants.

    The drift callable must be vectorized in t and x: the stepping solvers
    pass a scalar t and the states of every path at one node, Picard
    passes t as a (1, nodes) row against a (paths, nodes) matrix of
    states. lipschitz is declared by the caller, never inferred; Picard
    sizes its slabs and its iteration budget from it.
    """

    drift: Callable[[float, np.ndarray], np.ndarray]
    sigma: float
    x0: float
    lipschitz: float
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("sigma", "x0", "lipschitz"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.lipschitz < 0:
            raise ValueError("the Lipschitz constant must be nonnegative")


def make_fou(lam: float, sigma: float, x0: float) -> SdeSpec:
    """Mean-reverting linear drift: b(t, x) = -lam * x."""
    if lam < 0:
        raise ValueError("mean-reversion rate must be nonnegative")
    return SdeSpec(
        drift=lambda t, x: -lam * x,
        sigma=sigma,
        x0=x0,
        lipschitz=lam,
        label=f"fou(lam={lam:g},sigma={sigma:g},x0={x0:g})",
    )


@dataclass(frozen=True)
class SolverResult:
    """Node values of the state X and of its noise-free part Y = X - sigma W,
    one row per path, plus the iteration count and diagnostics of Picard."""

    x: np.ndarray
    y: np.ndarray
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)


def _check_finite(arr: np.ndarray, solver: str, step: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise DriftBlowupError(f"{solver} produced a non-finite value at step {step}")


def _flow_euler_core(spec: SdeSpec, t: np.ndarray, w: np.ndarray) -> Iterator[np.ndarray]:
    y = np.full(w.shape[1], spec.x0, dtype=w.dtype)
    yield y
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        rate = spec.drift(t[k], y + spec.sigma * w[k])
        y = y + dt * np.asarray(rate)
        _check_finite(y, "flow-euler", k + 1)
        yield y


def _flow_rk4_core(spec: SdeSpec, t: np.ndarray, w: np.ndarray) -> Iterator[np.ndarray]:
    """Classic RK4 on the random ODE; W at half-nodes by linear interpolation."""
    y = np.full(w.shape[1], spec.x0, dtype=w.dtype)
    yield y
    s = spec.sigma
    b = spec.drift
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        tk, tm, tn = t[k], t[k] + 0.5 * dt, t[k + 1]
        wk = w[k]
        wn = w[k + 1]
        wm = 0.5 * (wk + wn)
        k1 = np.asarray(b(tk, y + s * wk))
        k2 = np.asarray(b(tm, y + 0.5 * dt * k1 + s * wm))
        k3 = np.asarray(b(tm, y + 0.5 * dt * k2 + s * wm))
        k4 = np.asarray(b(tn, y + dt * k3 + s * wn))
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(y, "flow-rk4", k + 1)
        yield y


# The stepping solvers. Each core takes time-major noise, row k holding
# every path's W at node k, so a step reads contiguous rows. It yields the
# rows Y_0, Y_1, ... of Y = X - sigma W, one per node and each across every
# path, and holds only the current row and its RK4 stages: a consumer keeps
# what it needs as the rows go past. Every yielded row is a fresh array.
_STEPPERS = {
    "flow-euler": _flow_euler_core,
    "flow-rk4": _flow_rk4_core,
}


def solve_picard(spec: SdeSpec, grid: TimeGrid, w: np.ndarray, tol: float) -> SolverResult:
    """Fixed-point iteration of the integral form, trapezoid quadrature.

    The horizon is split into slabs with slab_length * L <= 0.5, never
    narrower than one cell; each slab restarts from the previous slab's
    endpoint. On a slab the trapezoid map contracts in the max norm by
    q = L * (width - first cell / 2), so after the first delta d1 the
    iteration needs about log(tol / d1) / log(q) more steps: that, plus a
    small margin, is the budget. A slab also stops once delta is at the
    rounding floor of the map, a few ulps of max|y| amplified by
    1 / (1 - q), below which no tol can be met.

    All rows of w iterate together, and a slab stops on the largest delta
    over them, so a row's solution depends, below tol, on the rows it is
    solved with. `sde_mc_stats` calls it once per row block of a fixed
    partition, which no thread count changes.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = grid.points
    lip = spec.lipschitz
    slab_len = grid.horizon if lip * grid.horizon <= _SLAB_CONTRACTION else _SLAB_CONTRACTION / lip
    y = np.empty_like(w)
    y[:, 0] = spec.x0
    s = spec.sigma
    total_iter = 0
    n_slabs = 0
    i0 = 0
    while i0 < t.size - 1:
        # widest slab [i0, i1] with t[i1] - t[i0] <= slab_len, at least one cell
        i1 = int(np.searchsorted(t, t[i0] + slab_len * (1.0 + 1e-12), side="right")) - 1
        i1 = max(i1, i0 + 1)
        ts = t[i0 : i1 + 1]
        ws = w[:, i0 : i1 + 1]
        dts = np.diff(ts)
        q = lip * (ts[-1] - ts[0] - 0.5 * dts[0])
        if q >= 1.0:
            raise NonConvergenceError(
                f"picard slab starting at t={t[i0]:.6g} has contraction bound "
                f"q = {q:.3g} >= 1; refine the grid"
            )
        y0 = y[:, i0]
        cur = np.tile(y0[:, None], (1, ts.size))
        floor = _ROUNDING_ULPS * _EPS / (1.0 - q)
        it = 0
        while True:
            rates = np.asarray(spec.drift(ts[None, :], cur + s * ws))
            nxt = np.empty_like(cur)
            nxt[:, 0] = y0
            np.cumsum(0.5 * (rates[:, :-1] + rates[:, 1:]) * dts, axis=1, out=nxt[:, 1:])
            del rates  # at most four (paths x slab) arrays are alive at once
            nxt[:, 1:] += y0[:, None]
            _check_finite(nxt, "picard", i0)
            # the old iterate is dead after this step: its buffer takes |nxt - cur|
            delta = float(np.max(np.abs(np.subtract(nxt, cur, out=cur), out=cur)))
            cur = nxt
            it += 1
            if delta < tol:
                break
            if it == 1:
                budget = 1 + _PICARD_MARGIN
                if q > 0.0:
                    budget += math.ceil(math.log(tol / delta) / math.log(q))
                # by the contraction no later iterate is larger than this
                y_bound = float(np.max(np.abs(cur))) + delta / (1.0 - q)
            # the exact max|y| only once delta is near the floor
            if delta <= floor * y_bound and delta <= floor * float(np.max(np.abs(cur))):
                break
            if it >= budget:
                raise NonConvergenceError(
                    f"picard slab starting at t={t[i0]:.6g} still at delta="
                    f"{delta:.3e} after {it} iterations (tol {tol:.1e}, q {q:.3g})"
                )
        total_iter += it
        n_slabs += 1
        y[:, i0 : i1 + 1] = cur
        i0 = i1
    return SolverResult(y + s * w, y, total_iter, {"n_slabs": n_slabs})


def solve(spec: SdeSpec, grid: TimeGrid, w: np.ndarray, solver: str, tol: float = 1e-10) -> SolverResult:
    """Solve the equation along every row of the noise matrix w on grid.

    The stepping solvers run on the time-major transpose of w; the result
    has w's layout, one row per path.
    """
    if solver == "picard":
        return solve_picard(spec, grid, w, tol)
    if solver not in _STEPPERS:
        raise ValueError(f"unknown solver {solver!r}; pick one of {SOLVER_NAMES}")
    y = np.stack(list(_STEPPERS[solver](spec, grid.points, np.ascontiguousarray(w.T))), axis=1)
    return SolverResult(y + spec.sigma * w, y)


# ---------------------------------------------------------------------------
# mean/variance oracle for the linear (mean-reverting) case
# ---------------------------------------------------------------------------


def fou_oracle(
    lam: float,
    sigma: float,
    x0: float,
    times: np.ndarray,
    ctx: PhiContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and norm-based variance of the linear-drift solution.

    mean(t) = x0 exp(-lam t); var(t) = sigma^2 ||exp(-lam(t-.))||^2_phi on
    [0, t], with the norm evaluated on an ORACLE_CELLS midpoint step projection
    (the oracle's only approximation; a doubled-resolution check belongs to
    the caller/test side). On the uniform projection grid the phi rectangle
    matrix is Toeplitz, dt^2H gamma(|i - j|) with gamma the unit fGn
    autocovariance, so the quadratic form needs only the lag sums
    sum_i f_i f_{i+k} of the levels f, not the dense matrix.
    """
    ts = np.asarray(times, dtype=float)
    if np.any(ts < 0):
        raise ValueError("times must be nonnegative")
    means = x0 * np.exp(-lam * ts)
    variances = np.empty_like(ts)
    gamma = fgn_autocovariance(ORACLE_CELLS, ctx.hurst)
    for i, t in enumerate(ts):
        if t == 0.0:
            variances[i] = 0.0
            continue
        grid = TimeGrid.uniform(ORACLE_CELLS, t)
        f = np.exp(-lam * (t - 0.5 * (grid.points[:-1] + grid.points[1:])))
        lag_sums = np.correlate(f, f, "full")[ORACLE_CELLS - 1 :]
        quad = gamma[0] * lag_sums[0] + 2.0 * (gamma[1:] @ lag_sums[1:])
        variances[i] = sigma * sigma * (t / ORACLE_CELLS) ** (2.0 * ctx.h) * quad
    return means, variances


def sde_mc_stats(
    spec: SdeSpec,
    grid: TimeGrid,
    h: HurstParameter,
    master_seed: int,
    n_paths: int,
    checkpoints: np.ndarray,
    oracle: tuple[np.ndarray, np.ndarray],
    solver: str = "flow-rk4",
    tol: float = 1e-10,
) -> tuple[list[MonteCarloReport], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sample the n_paths-row circulant ensemble, solve along every row, and
    test the ensemble mean and variance at the checkpoints against a
    supplied oracle. Returns the reports and the nodes of X, Y and W on
    row 0, the stream-0 path.

    The sampler hands its row blocks, a partition fixed by the grid alone
    (`fbm.block_rows`), to a consumer on the worker pool. Picard solves
    each block in the task that drew it and keeps only X at the
    checkpoints, so its memory is a few blocks. The stepping solvers copy
    the blocks into one time-major noise array and step every path at
    once: a step costs the same few numpy calls whatever its width, so
    narrow blocks would multiply that Python cost, and threads stepping
    side by side would queue on the interpreter lock. That noise array
    stays whole because a step needs every path's W at one node while the
    sampler yields whole paths. The state does not: the core's rows go
    past one at a time, and only X at the checkpoints and the Y of path 0
    are kept, never a (nodes x paths) Y.
    """
    cps = np.asarray(checkpoints, dtype=float)
    means_oracle, vars_oracle = oracle
    if cps.shape != np.shape(means_oracle) or cps.shape != np.shape(vars_oracle):
        raise ValueError("oracle curves must align with the checkpoints")
    if solver != "picard" and solver not in _STEPPERS:
        raise ValueError(f"unknown solver {solver!r}; pick one of {SOLVER_NAMES}")
    idx = []
    for t in cps:
        j = int(np.searchsorted(grid.points, t))
        if j >= grid.points.size or grid.points[j] != t:
            raise ValueError(f"checkpoint t = {t} is not a grid point")
        idx.append(j)

    if solver == "picard":

        def picard_block(lo: int, w: np.ndarray):
            result = solve_picard(spec, grid, w, tol)
            return result.x[:, idx], (result.x[0], result.y[0], w[0].copy()) if lo == 0 else None

        _lift_heap_thresholds()
        parts = ensemble_values("circulant", grid, h, master_seed, n_paths, keep=picard_block)
        x_cps = np.concatenate([x for x, _ in parts]).T
        path0 = parts[0][1]
    else:
        w = np.empty((grid.points.size, n_paths))

        def fill(lo: int, block: np.ndarray) -> None:
            w[:, lo : lo + block.shape[0]] = block.T

        ensemble_values("circulant", grid, h, master_seed, n_paths, keep=fill)
        cps_at: dict[int, list[int]] = {}  # node -> its rows of x_cps
        for i, j in enumerate(idx):
            cps_at.setdefault(j, []).append(i)
        x_cps = np.empty((len(idx), n_paths))
        y0 = np.empty(grid.points.size)
        for k, yk in enumerate(_STEPPERS[solver](spec, grid.points, w)):
            y0[k] = yk[0]
            for i in cps_at.get(k, ()):
                x_cps[i] = yk + spec.sigma * w[k]
        w0 = w[:, 0].copy()  # a copy, so that the (nodes x paths) noise dies on return
        path0 = (y0 + spec.sigma * w0, y0, w0)
    reports = []
    for samples, t, mu, var in zip(x_cps, cps, means_oracle, vars_oracle):
        centered = samples - fmean(samples)
        with np.errstate(over="ignore"):
            s2 = float(np.sum(centered**2)) / (samples.size - 1)
        if not math.isfinite(s2):
            raise VarianceOverflowError(f"the sample variance of X at t={t:g} overflows a float")
        reports.append(MonteCarloReport.from_samples(f"mean@t={t:g}", samples, float(mu)))
        reports.append(
            MonteCarloReport.build(
                f"variance@t={t:g}",
                s2,
                float(var),
                variance_stderr(samples),
                samples.size,
            )
        )
    return reports, path0
