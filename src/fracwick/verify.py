"""Numerical verification of the calculus identities.

Each identity becomes a residual: left side minus the frozen left-endpoint
discretization of the right side, evaluated per path. On the grid every
Wick correction of a noise sum and the phi-derivative trace term that
comes with it carry the same lower kernel G_i = sum_{j<i} b_j int int phi
over cell i x cell j, once with each sign, so G cancels exactly; the left
corrections and the diagonal cell integrals leave only the half cell
dt_i^2H / 2. Every residual is therefore first-order Riemann sums plus a
half-cell compensator, and its only deterministic kernel factors are the
spacings and the half cells. Everything random is frozen at left endpoints
and evaluated on the rows a residual is given; every reduction runs along
a row, so a row's residual is the same bits whatever rows come with it.
Expectations of residuals are then tested by z-score, pathwise magnitudes
by refinement ladders.

Only the factors that are not identically zero are built. A polynomial
field carries its coefficients with trailing zeros trimmed
(CylinderFunction.coeffs, SpaceTimeFunction.coeffs), and the residuals read
that record: each partial is formed by Horner's rule on its nonzero
coefficients, a zero partial contributes no term, and one that is a number
scales a single sum of its weights. A term whose drive level is identically
zero is not formed either, and a drive with zero diffusion is one time row
for all paths. A zero factor is skipped rather than evaluated because
evaluating it costs a paths x cells product and row sum for a term that is
exactly 0, while skipping x + 0 leaves every other sum with the same bits.

Each residual function returns, next to the per-path residual, the
per-path magnitude of the terms that cancel in it, so that a residual at
rounding level is judged against their size and not against 1.

The residual families are named in RESIDUAL_NAMES; case_registry(name)
gives a family's cases and residual_block(name, ...) is the one dispatch
from a family to its residual function, used by the suites and the ladders
alike. It builds a case's grid-level set-up once and returns the function
of a row block. The suites stream the ensemble (`streamed_values`) one
sampler row block at a time, the only blocking below a suite, so that
function runs once per case and block. It calls ito_residuals,
product_rule_residuals and wentzell_residuals by their module-global names
at call time, and the suites call girsanov_check, exponential_mean_report
and `wick.isometry_check` per block through their module attributes as
well, so that a wrapper installed on those attributes (a profiler's span,
a test's spy) sees every case and every block.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnsupportedCaseError
from .fbm import HurstParameter, _lift_heap_thresholds, ensemble_values
from .functions import CylinderFunction, SpaceTimeFunction
from .grids import TimeGrid
from .mc import EXACT_REL_TOL, fmean, fsum
from .phicalc import PhiContext
from .stepfn import StepFunction
from .wick import _step_levels_on_path, exponential_block

# Cost cap in path-matrix cells: paths times total cells across the rungs
# of a convergence ladder, and paths times grid points for every other suite.
MAX_LADDER_BUDGET = 2**28


# ---------------------------------------------------------------------------
# drives: X = x0 + int a ds + int b dW with deterministic step coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriveSpec:
    """Process driven by deterministic drift/diffusion step coefficients."""

    x0: float = 0.0
    drift: float | StepFunction = 0.0
    diffusion: float | StepFunction = 0.0
    label: str = ""


def _cell_levels(coef: float | StepFunction, grid: TimeGrid) -> np.ndarray:
    if isinstance(coef, StepFunction):
        return _step_levels_on_path(coef, grid)
    return np.full(grid.n_intervals, float(coef))


def _drive(x0: float, a_dt: np.ndarray, b_dw: np.ndarray | None):
    """X = x0 + sum (a dt + b dW) from the cell weights a dt and, unless b
    is identically zero, the noise increments b dW: at the left ends of the
    cells, at their right ends and at the horizon. It is x0 itself when
    a dt is identically zero too, time rows when only b is, and
    path-by-cell matrices otherwise."""
    if b_dw is None:
        if not a_dt.any():
            return x0, x0, x0
        incr = a_dt
    else:
        incr = a_dt + b_dw if a_dt.any() else b_dw
    x = np.empty(incr.shape[:-1] + (incr.shape[-1] + 1,))
    x[..., 0] = x0
    np.cumsum(incr, axis=-1, out=x[..., 1:])
    if x0:
        x[..., 1:] += x0
    return x[..., :-1], x[..., 1:], x[..., -1]


# No residual needs it, as G cancels; the benchmark's tracer patches it by name.
def _lower_kernel(b_levels: np.ndarray, t: np.ndarray, ctx: PhiContext) -> np.ndarray:
    """G_i = sum_{j<i} b_j int int phi over cell i x cell j: the exact
    integral over cell i of the phi-derivative of the drive frozen at t_i.

    The rectangle integral is D_i(t_{j+1}) - D_i(t_j) with
    D_i(v) = R(t_{i+1}, v) - R(t_i, v), and D_i(0) = 0, so summation by
    parts leaves
        G_i = b_{i-1} D_i(t_i) - sum_{jumps j<i} (b_j - b_{j-1}) D_i(t_j).
    One O(n) pass per jump of b: O(n k) for k jumps, with no n x n matrix.
    """
    b = np.asarray(b_levels, dtype=float)
    two_h = 2.0 * ctx.h
    left, right = t[:-1], t[1:]
    rise = right**two_h - left**two_h
    g = np.zeros(b.size)
    # D_i(t_i) = (t_{i+1}^2H - t_i^2H - dt_i^2H) / 2
    g[1:] = b[:-1] * (0.5 * (rise - (right - left) ** two_h))[1:]
    for j in np.flatnonzero(np.diff(b)) + 1:
        v = t[j]
        d_i = 0.5 * (rise[j + 1 :] - (right[j + 1 :] - v) ** two_h + (left[j + 1 :] - v) ** two_h)
        g[j + 1 :] -= (b[j] - b[j - 1]) * d_i
    return g


# ---------------------------------------------------------------------------
# degree-aware arithmetic: only the factors that are not identically zero
# ---------------------------------------------------------------------------


def _dx(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Coefficients of the x-derivative of sum_k coeffs[k] x^k, each k c_k
    formed as numpy's polyder forms it."""
    return tuple(k * c for k, c in enumerate(coeffs) if k)


def _powers(s, n: int) -> tuple:
    """1, s, ..., s^(n-1), each power one product from the last."""
    out = [1.0]
    while len(out) < n:
        out.append(out[-1] * s)
    return tuple(out)


def _field(polys, bases, x):
    """sum_j bases[j] * P_j(x), with polys[j] the recorded coefficients of
    P_j, by Horner's rule in x on the combined coefficients
    c_k = sum_j bases[j] * polys[j][k].

    A base is a number, a time row or a path matrix, and so is x. A zero
    coefficient is skipped and a unit one not multiplied out, so the zero
    field is 0.0, a field constant in x is built from its bases alone, and
    x is not read unless some P_j has degree 1 or more.
    """
    acc = None
    for k in reversed(range(max(map(len, polys), default=0))):
        parts = [_scaled(p[k], b) for b, p in zip(bases, polys) if k < len(p) and p[k]]
        c = functools.reduce(operator.add, parts) if parts else None
        if acc is None:
            acc = c
        else:
            acc = _scaled(acc, x) if c is None else c + _scaled(acc, x)
    return 0.0 if acc is None else acc


def _scaled(c, v):
    """c * v, and v itself when c is the number 1."""
    return v if np.ndim(c) == 0 and c == 1.0 else c * v


def _row_sums(factor, weights):
    """Row sums of factor * weights along the cells. A factor that is one
    number scales a single sum of the weights, and 0.0 builds nothing."""
    if np.ndim(factor) == 0:
        return factor * weights.sum(axis=-1) if factor else 0.0
    return (factor * weights).sum(axis=-1)


def _per_path(values, wb: np.ndarray) -> np.ndarray:
    """values, which is one number when no surviving term reads the noise,
    as one value per row of the block wb."""
    return np.broadcast_to(values, wb.shape[:1])


def _balance(wb: np.ndarray, end, start, *terms) -> np.ndarray:
    """Rows (end - start) - sum(terms) and |end| + |start| + sum |terms|, one
    value per row of the block wb: a residual and the size of the terms
    that cancel in it, against which its rounding is judged. The terms are
    added in their order, so a residual keeps the bits of that sum."""
    residual = (end - start) - functools.reduce(operator.add, terms)
    magnitude = functools.reduce(operator.add, map(abs, terms), abs(end) + abs(start))
    return np.stack((_per_path(residual, wb), _per_path(magnitude, wb)))


def _partials(f: SpaceTimeFunction):
    """f, f_x and f_xx as functions of (s, x). A polynomial field is
    evaluated from its recorded coefficients, so that its zero and
    x-constant partials cost nothing per path; any other field by its own
    partials."""
    if f.coeffs is None:
        return f.value, f.dx, f.dxx
    dx = tuple(map(_dx, f.coeffs))
    dxx = tuple(map(_dx, dx))
    return tuple(
        (lambda s, x, polys=polys: _field(polys, _powers(s, len(polys)), x))
        for polys in (f.coeffs, dx, dxx)
    )


# ---------------------------------------------------------------------------
# change-of-variable residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItoCase:
    """Field f(s, x) composed with the noise integral of a deterministic
    step function a; a = None means the process is the noise itself."""

    f: SpaceTimeFunction
    a: StepFunction | None = None
    label: str = ""


def ito_residuals(
    case: ItoCase, w: np.ndarray, ctx: PhiContext, grid: TimeGrid, block: Callable | None = None
) -> np.ndarray:
    """Per-path residual of the change-of-variable identity, and its
    magnitude (`_balance`): the noise sum, the exact drift and the half-cell
    compensator sum f_xx a^2 dt^2H / 2; the Wick correction of the noise
    sum cancels the curvature's lower kernel. block, when given, is the
    case's arithmetic that `residual_block` builds once for every row
    block; otherwise the call builds it."""
    return (block or _ito_block(case, ctx, grid))(w)


def _ito_block(case: ItoCase, ctx: PhiContext, grid: TimeGrid):
    t = grid.points
    a_lv = np.ones(grid.n_intervals) if case.a is None else _step_levels_on_path(case.a, grid)
    curvature_weights = a_lv * a_lv * (0.5 * grid.spacings ** (2.0 * ctx.h))
    left_t, right_t = t[:-1], t[1:]
    f_value, f_dx, f_dxx = _partials(case.f)
    f_start = f_value(0.0, 0.0)

    def block(wb: np.ndarray) -> np.ndarray:
        dw = np.diff(wb, axis=1)
        if case.a is None:
            eta, a_dw = wb, dw
        else:
            a_dw = a_lv * dw
            eta = np.empty_like(wb)
            eta[:, 0] = 0.0
            np.cumsum(a_dw, axis=1, out=eta[:, 1:])
        left_x = eta[:, :-1]
        end = f_value(t[-1], eta[:, -1])
        noise_term = _row_sums(f_dx(left_t, left_x), a_dw)
        # the exact integral of d f / ds over each cell, x frozen; it
        # vanishes identically for a time-independent field
        drift_term = (
            np.sum(f_value(right_t, left_x) - f_value(left_t, left_x), axis=-1)
            if case.f.time_dependent
            else 0.0
        )
        curvature_term = _row_sums(f_dxx(left_t, left_x), curvature_weights)
        return _balance(wb, end, f_start, noise_term, drift_term, curvature_term)

    return block


# ---------------------------------------------------------------------------
# product rule residual
# ---------------------------------------------------------------------------


def product_rule_residuals(
    x_case: DriveSpec,
    y_case: DriveSpec,
    w: np.ndarray,
    ctx: PhiContext,
    grid: TimeGrid,
    block: Callable | None = None,
) -> np.ndarray:
    """Per-path residual of d(XY) = X dY + Y dX + cross phi-derivative
    terms, and its magnitude (`_balance`).

    The Wick corrections of X dY and Y dX cancel the lower kernels of the
    cross terms, which leaves sum 2 b_x b_y dt^2H / 2. A sum whose
    coefficient is identically zero is not built; a drive whose diffusion
    is identically zero is one time row for every path, and one whose
    drift is too is the number x0. block is as in `ito_residuals`.
    """
    return (block or _product_rule_block(x_case, y_case, ctx, grid))(w)


def _product_rule_block(x_case: DriveSpec, y_case: DriveSpec, ctx: PhiContext, grid: TimeGrid):
    dt = grid.spacings
    ax, bx = _cell_levels(x_case.drift, grid), _cell_levels(x_case.diffusion, grid)
    ay, by = _cell_levels(y_case.drift, grid), _cell_levels(y_case.diffusion, grid)
    # With deterministic coefficients the cross term, twice b_x b_y times
    # the half cell, is the same for every path.
    cross = fsum(bx * by * dt ** (2.0 * ctx.h))
    ay_dt, ax_dt = ay * dt, ax * dt
    # the trapezoid's 1/2 rides on the weights: scaling by 1/2 is exact
    half_ay_dt, half_ax_dt = 0.5 * ay_dt, 0.5 * ax_dt
    start = x_case.x0 * y_case.x0

    def block(wb: np.ndarray) -> np.ndarray:
        dw = np.diff(wb, axis=1) if bx.any() or by.any() else None
        bx_dw = bx * dw if bx.any() else None
        by_dw = by * dw if by.any() else None
        xl, xr, x_end = _drive(x_case.x0, ax_dt, bx_dw)
        yl, yr, y_end = _drive(y_case.x0, ay_dt, by_dw)
        # dW sums are left-endpoint by construction; the ordinary dt
        # integrals use the trapezoid rule, which is exact for the affine
        # family and keeps the deterministic part of the residual at
        # rounding level.
        x_dy = (_row_sums(xl + xr, half_ay_dt) if ay.any() else 0.0) + (
            _row_sums(xl, by_dw) if by_dw is not None else 0.0
        )
        y_dx = (_row_sums(yl + yr, half_ax_dt) if ax.any() else 0.0) + (
            _row_sums(yl, bx_dw) if bx_dw is not None else 0.0
        )
        return _balance(wb, x_end * y_end, start, x_dy, y_dx, cross)

    return block


# ---------------------------------------------------------------------------
# composition (time-dependent field) residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WentzellCase:
    """Quadratic-family random field composed with a driven process.

    The field is F_t(x) = f0(x) + g(x) t + h(x) W_t with f0, g, h
    polynomials of degree <= 2, evolving along the same noise that drives
    the process X.
    """

    f0: CylinderFunction
    g: CylinderFunction
    h: CylinderFunction
    drive: DriveSpec
    label: str = ""

    @classmethod
    def from_polys(
        cls,
        f0_coeffs,
        g_coeffs,
        h_coeffs,
        drive: DriveSpec,
        label: str = "",
    ) -> "WentzellCase":
        for name, c in (("f0", f0_coeffs), ("g", g_coeffs), ("h", h_coeffs)):
            if len(list(c)) > 3:
                raise UnsupportedCaseError(
                    f"{name} must be a polynomial of degree <= 2 in the field family"
                )
        return cls(
            f0=CylinderFunction.polynomial(f0_coeffs),
            g=CylinderFunction.polynomial(g_coeffs),
            h=CylinderFunction.polynomial(h_coeffs),
            drive=drive,
            label=label,
        )


def wentzell_residuals(
    case: WentzellCase, w: np.ndarray, ctx: PhiContext, grid: TimeGrid, block: Callable | None = None
) -> np.ndarray:
    """Per-path residual of the composition identity, and its magnitude
    (`_balance`).

    Of its eight right-hand terms, the Wick corrections of the two noise
    sums cancel the lower kernels of the curvature and the two cross
    terms, and the left corrections cancel the diagonal cell integrals up
    to the half cells, which leaves six: drift, noise, sum F_xx b^2 dt^2H / 2,
    field drift, field noise and sum 2 h'(X) b dt^2H / 2.

    With F_t(x) = sum_k (f0_k + g_k t + h_k W_t) x^k, the partials F_x and
    F_xx come from the recorded coefficients by Horner's rule in x. A term
    is built only if its factor and its drive level are not identically
    zero; X is built only if some polynomial has degree 1 or more, and is a
    time row when the diffusion is identically zero. block is as in
    `ito_residuals`.
    """
    return (block or _wentzell_block(case, ctx, grid))(w)


def _wentzell_block(case: WentzellCase, ctx: PhiContext, grid: TimeGrid):
    polys = (case.f0.coeffs, case.g.coeffs, case.h.coeffs)
    if None in polys:
        raise UnsupportedCaseError("the field family needs polynomial f0, g and h")
    g, h = polys[1:]
    dx = tuple(map(_dx, polys))
    dxx = tuple(map(_dx, dx))
    h_dx = dx[2]
    t = grid.points
    dt = grid.spacings
    drive = case.drive
    a_lv = _cell_levels(drive.drift, grid)
    b_lv = _cell_levels(drive.diffusion, grid)
    half_cell = 0.5 * dt ** (2.0 * ctx.h)
    a_dt = a_lv * dt
    # the trapezoid's 1/2 rides on the weights: scaling by 1/2 is exact
    half_a_dt, half_dt = 0.5 * a_dt, 0.5 * dt
    curvature_weights = b_lv * b_lv * half_cell
    cross_weights = 2.0 * b_lv * half_cell
    tl, tr = t[:-1], t[1:]
    drifts, noisy = a_lv.any(), b_lv.any()
    # F_x is not identically zero exactly when some polynomial reads x
    reads_x = any(dx)
    start = _field(polys, (1.0, 0.0, 0.0), drive.x0)
    one = (1.0,)

    def block(wb: np.ndarray) -> np.ndarray:
        dw = np.diff(wb, axis=1) if (noisy and reads_x) or h else None
        b_dw = b_lv * dw if noisy and reads_x else None
        x_left, x_right, x_end = _drive(drive.x0, a_dt, b_dw) if reads_x else (None,) * 3
        left = (1.0, tl, wb[:, :-1])
        f_dx = _field(dx, left, x_left)
        end = _field(polys, (1.0, t[-1], wb[:, -1]), x_end)
        # Ordinary dt integrals use the trapezoid rule (exact for the affine
        # family); only the dW sums are pinned to left endpoints.
        drift_term = (
            _row_sums(f_dx + _field(dx, (1.0, tr, wb[:, 1:]), x_right), half_a_dt)
            if drifts and reads_x
            else 0.0
        )
        noise_term = _row_sums(f_dx, b_dw) if b_dw is not None else 0.0
        curvature_term = (
            _row_sums(_field(dxx, left, x_left), curvature_weights) if noisy and any(dxx) else 0.0
        )
        field_drift_term = (
            _row_sums(_field((g,), one, x_left) + _field((g,), one, x_right), half_dt)
            if g
            else 0.0
        )
        field_noise_term = _row_sums(_field((h,), one, x_left), dw) if h else 0.0
        cross_term = _row_sums(_field((h_dx,), one, x_left), cross_weights) if noisy and h_dx else 0.0
        return _balance(
            wb,
            end,
            start,
            drift_term,
            noise_term,
            curvature_term,
            field_drift_term,
            field_noise_term,
            cross_term,
        )

    return block


# ---------------------------------------------------------------------------
# change-of-measure check
# ---------------------------------------------------------------------------


def drift_shift_at(g_fn: StepFunction, t: float, ctx: PhiContext) -> float:
    """Integral over [0, t] of (Phi g)(s) ds: sum_j g_j (R(t, u_{j+1}) - R(t, u_j))."""
    pts = g_fn.grid.points
    two_h = 2.0 * ctx.h
    r_t = 0.5 * (pts**two_h + t**two_h - np.abs(pts - t) ** two_h)
    return fsum(g_fn.levels * (r_t[1:] - r_t[:-1]))


def girsanov_check(
    fn: CylinderFunction,
    g_fn: StepFunction,
    w: np.ndarray,
    ctx: PhiContext,
    grid: TimeGrid,
    name: str | None = None,
    block: Callable | None = None,
) -> np.ndarray:
    """Shifted-path expectation against the reweighted one, common noise:
    the (2, paths) rows of both sides, per path, for a paired comparison.

    Left: fn at W_T + shift(T) with shift the exact antiderivative of the
    kernel transform of g. Right: fn at W_T times the mean-one exponential
    of g; g = 0 makes the two rows equal. name labels the check for a
    profiler's span; its report carries the name. block, when given, is
    girsanov_block(fn, g_fn, ctx, grid), built once for the many row blocks
    of a streamed ensemble; otherwise the call builds it.
    """
    return (block or girsanov_block(fn, g_fn, ctx, grid))(w)


def girsanov_block(
    fn: CylinderFunction, g_fn: StepFunction, ctx: PhiContext, grid: TimeGrid
) -> Callable[[np.ndarray], np.ndarray]:
    """girsanov_check as a function of a row block of paths on grid, with
    the shift and the exponential's set-up computed once for all blocks."""
    shift = drift_shift_at(g_fn, grid.horizon, ctx)
    eps = exponential_block(g_fn, ctx, grid)

    def block(wb: np.ndarray) -> np.ndarray:
        w_t = wb[:, -1]
        return np.stack((fn.value(w_t + shift), fn.value(w_t) * eps(wb)))

    return block


def exponential_mean_report(
    g_fn: StepFunction, w: np.ndarray, ctx: PhiContext, grid: TimeGrid, block: Callable | None = None
) -> np.ndarray:
    """Per-path exponential functional of g, whose exact mean is 1; block,
    when given, is `wick.exponential_block(g_fn, ctx, grid)`."""
    return (block or exponential_block(g_fn, ctx, grid))(w)


# ---------------------------------------------------------------------------
# checks streamed over the ensemble's row blocks
# ---------------------------------------------------------------------------


def streamed_values(
    grid: TimeGrid,
    hurst: HurstParameter,
    master_seed: int,
    n_paths: int,
    checks: list[Callable[[np.ndarray], np.ndarray]],
    min_rows: int = 1,
) -> list[np.ndarray]:
    """Per-path values of every check over a circulant ensemble that is
    never held whole.

    Each check maps a row block of path values (rows = paths, columns =
    grid nodes) to an array whose last axis runs over the block's rows.
    `fbm.ensemble_values` hands every block to every check in turn, on the
    worker pool, in blocks of at least min_rows rows; the values are then
    joined in row order, one array per check. A check that reduces only
    along a row gives the values of one call on the whole matrix, bit for
    bit, whatever the blocking.
    """
    _lift_heap_thresholds()
    parts = ensemble_values(
        "circulant",
        grid,
        hurst,
        master_seed,
        n_paths,
        keep=lambda lo, wb: [check(wb) for check in checks],
        min_rows=min_rows,
    )
    return [np.concatenate(values, axis=-1) for values in zip(*parts)]


# ---------------------------------------------------------------------------
# refinement ladders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceTable:
    """RMS residual per grid size plus the fitted log-log slope.

    A ladder whose every rung is at rounding level (rms within
    EXACT_REL_TOL of the mean magnitude of the terms that cancel in the
    residual) is exact: the identity holds per path on every grid, there
    is no rate to fit, and slope is nan.
    """

    residual_name: str
    grid_sizes: tuple[int, ...]
    rms: tuple[float, ...]
    slope: float
    n_paths: int
    exact: bool

    def rows(self) -> list[tuple[int, float]]:
        return list(zip(self.grid_sizes, self.rms))


def residual_block(name: str, case, ctx: PhiContext, grid: TimeGrid) -> Callable[[np.ndarray], np.ndarray]:
    """The function from a row block of paths on grid to the residuals of
    one case of the named family and their magnitudes, the rows of a
    (2, rows) array.

    The case's grid-level set-up is built here, once for every row block;
    each block then goes to ito_residuals, product_rule_residuals or
    wentzell_residuals, looked up by module-global name at call time, with
    the case first.
    """
    if name == "ito":
        block = _ito_block(case, ctx, grid)
        return lambda wb: ito_residuals(case, wb, ctx, grid, block)
    if name == "product-rule":
        block = _product_rule_block(*case, ctx, grid)
        return lambda wb: product_rule_residuals(*case, wb, ctx, grid, block)
    if name == "wentzell":
        block = _wentzell_block(case, ctx, grid)
        return lambda wb: wentzell_residuals(case, wb, ctx, grid, block)
    raise UnsupportedCaseError(f"unknown residual {name!r}; known: {RESIDUAL_NAMES}")


def ladder_sizes(grid_sizes, n_paths: int) -> list[int]:
    """The rungs of a ladder, sorted; ValueError naming the config key at
    fault unless they nest into the largest one within the budget."""
    sizes = sorted(int(n) for n in grid_sizes)
    if len(sizes) < 2:
        raise ValueError("grid_sizes needs at least two sizes for a ladder")
    if sizes[0] < 2:
        raise ValueError("grid_sizes entries must be at least 2")
    if len(set(sizes)) != len(sizes):
        raise ValueError("grid_sizes entries must be distinct")
    if any(sizes[-1] % n for n in sizes):
        raise ValueError("every grid_sizes entry must divide the largest one")
    budget = n_paths * sum(sizes)
    if budget > MAX_LADDER_BUDGET:
        raise ValueError(
            f"ladder budget n_paths * sum(grid_sizes) = {budget} exceeds the cap "
            f"{MAX_LADDER_BUDGET}; shrink n_paths or grid_sizes"
        )
    return sizes


def convergence_study(
    residual_name: str,
    case,
    grid_sizes: list[int],
    n_paths: int,
    ctx: PhiContext,
    horizon: float = 1.0,
    master_seed: int = 0,
) -> ConvergenceTable:
    """RMS residual ladder on nested restrictions of one set of fine paths.

    All rungs see restrictions of the same paths sampled at the finest
    grid, so rung-to-rung differences are pure discretization, not noise.
    The fine paths are streamed: each row block is restricted to every
    rung in the same pass.
    """
    sizes = ladder_sizes(grid_sizes, n_paths)
    n_max = sizes[-1]
    fine_grid = TimeGrid.uniform(n_max, horizon)

    def rung(n: int):
        stride = n_max // n
        residual = residual_block(residual_name, case, ctx, TimeGrid(fine_grid.points[::stride]))
        return lambda wb: residual(wb[:, ::stride])

    rms, scales = [], []
    for res, magnitude in streamed_values(fine_grid, ctx.hurst, master_seed, n_paths, [rung(n) for n in sizes]):
        rms.append(math.sqrt(fsum(res * res) / res.size))
        scales.append(fmean(magnitude))
    exact = all(r <= EXACT_REL_TOL * scale for r, scale in zip(rms, scales))
    slope = math.nan if exact else float(np.polyfit(np.log(sizes), np.log(rms), 1)[0])
    name = residual_name if not getattr(case, "label", "") else f"{residual_name}:{case.label}"
    return ConvergenceTable(
        residual_name=name,
        grid_sizes=tuple(sizes),
        rms=tuple(rms),
        slope=slope,
        n_paths=n_paths,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# case registries
# ---------------------------------------------------------------------------


# Registry cases whose residual has exactly zero expectation on every grid:
# the quadratic compensator telescopes for f = x**2 (any step coefficient a),
# the x1 residual vanishes per path, and odd fields (x3, sin) average to zero
# by the symmetry of the Gaussian drive. The remaining cases (tx2, x4) carry
# a deterministic O(1/n) expectation offset on a fixed grid, so a fixed-grid
# zero-mean test is not a claim they satisfy; they are verified through
# refinement ladders (convergence_study) instead.
ITO_MEAN_ZERO_CASES = ("x1", "x2", "x2-step", "x3", "sin")


def halves(horizon: float) -> StepFunction:
    """Level 1 on [0, T/2) and 1/2 on [T/2, T): the step coefficient of the
    step cases, whose breakpoint only even grid sizes hit."""
    return StepFunction(TimeGrid(np.array([0.0, 0.5 * horizon, horizon])), np.array([1.0, 0.5]))


def ito_case_registry(horizon: float = 1.0) -> dict[str, ItoCase]:
    """Named change-of-variable cases for the harness and the CLI."""
    mono = SpaceTimeFunction.from_cylinder
    cases = {
        "x1": ItoCase(mono(CylinderFunction.monomial(1)), label="x1"),
        "x2": ItoCase(mono(CylinderFunction.monomial(2)), label="x2"),
        "x3": ItoCase(mono(CylinderFunction.monomial(3)), label="x3"),
        "x4": ItoCase(mono(CylinderFunction.monomial(4)), label="x4"),
        "sin": ItoCase(mono(CylinderFunction.sine(1.0)), label="sin"),
        "tx2": ItoCase(
            SpaceTimeFunction.polynomial([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            label="tx2",
        ),
        "x2-step": ItoCase(
            mono(CylinderFunction.monomial(2)), a=halves(horizon), label="x2-step"
        ),
    }
    return cases


def product_rule_case_registry(
    horizon: float = 1.0,
) -> dict[str, tuple[DriveSpec, DriveSpec]]:
    """Named (X, Y) pairs for the product-rule residual."""
    noise = DriveSpec(x0=0.0, drift=0.0, diffusion=1.0, label="noise")
    return {
        "ww": (noise, noise),
        "w-const": (noise, DriveSpec(x0=2.5, drift=0.0, diffusion=0.0, label="const")),
        "affine": (
            DriveSpec(x0=0.3, drift=0.7, diffusion=1.0, label="affine-x"),
            DriveSpec(x0=1.0, drift=-0.2, diffusion=0.5, label="affine-y"),
        ),
        "step": (
            DriveSpec(x0=0.0, drift=halves(horizon), diffusion=1.0, label="step-drift"),
            DriveSpec(x0=0.5, drift=0.0, diffusion=halves(horizon), label="step-noise"),
        ),
    }


def wentzell_case_registry(horizon: float = 1.0) -> dict[str, WentzellCase]:
    return {
        "xw": WentzellCase.from_polys(
            [0.0], [0.0], [0.0, 1.0],
            DriveSpec(x0=0.0, drift=0.0, diffusion=1.0, label="noise"),
            label="xw",
        ),
        "deterministic": WentzellCase.from_polys(
            [1.0, 1.0, 0.5], [0.0], [0.0],
            DriveSpec(x0=0.3, drift=0.7, diffusion=0.0, label="ramp"),
            label="deterministic",
        ),
        "constant": WentzellCase.from_polys(
            [2.5], [0.0], [0.0],
            DriveSpec(x0=0.0, drift=1.0, diffusion=1.0, label="mixed"),
            label="constant",
        ),
        "quad": WentzellCase.from_polys(
            [0.0, 0.0, 1.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.0],
            DriveSpec(x0=0.1, drift=0.2, diffusion=0.8, label="affine"),
            label="quad",
        ),
    }


def girsanov_case_registry(horizon: float = 1.0) -> dict[str, tuple[CylinderFunction, StepFunction]]:
    full = StepFunction.constant(1.0, horizon)
    half_level = StepFunction.constant(0.5, horizon)
    return {
        "w": (CylinderFunction.monomial(1), full),
        "w2": (CylinderFunction.monomial(2), full),
        "expw": (CylinderFunction.exponential(1.0), half_level),
        "zero": (CylinderFunction.monomial(1), StepFunction.constant(0.0, horizon)),
    }


_CASE_REGISTRIES = {
    "ito": ito_case_registry,
    "product-rule": product_rule_case_registry,
    "wentzell": wentzell_case_registry,
}
RESIDUAL_NAMES = tuple(_CASE_REGISTRIES)


def case_registry(name: str, horizon: float = 1.0) -> dict:
    """Named cases of the residual family name, as residual_block() takes them."""
    return _CASE_REGISTRIES[name](horizon)
