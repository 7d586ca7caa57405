"""Wick-type noise integrals on grids, with exact left-endpoint corrections.

The discrete integral of a random integrand F against the noise subtracts,
cell by cell, the exact kernel integral that converts an ordinary product
into a Wick product: for F = h(W) the correction on [t_i, t_{i+1}] is
h'(W_{t_i}) (R(t_i, t_{i+1}) - R(t_i, t_i)), computed from R directly, never
by quadrature of the singular kernel. Only the cylinder integrals and the
isometry use these corrections: in the residuals of `verify`, each Wick
correction cancels against the phi-derivative trace term that carries the
same kernel, so they are written there without it. The second-moment
identity is exact on the grid as well: both of its kernels are differences
of R. They depend on the grid and H alone, so `isometry_kernels` builds
them once and every check of a suite shares them. A form whose factor is
the same constant on every path and cell is a kernel sum times that
constant squared, so a polynomial integrand with at most one recorded
coefficient needs no dense form and one with two needs only the one of h(W).

Every integral takes a row block of noise paths, a (paths x nodes) matrix
on a grid, and returns one value per row; one path is a one-row block. The
suites stream the ensemble through them one sampler block at a time
(`verify.streamed_values`), so no check sees the whole ensemble and no
temporary is larger than a block. Every reduction runs along a row, so the
integrals do not depend on the blocking bit for bit; only the isometry's
dense forms, matrix products whose accumulation order the BLAS picks from
the block's row count, may move at rounding level, and the isometry suite
streams blocks of at least _FORM_ROWS rows.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import GridMismatchError
from .fbm import covariance_grid
from .functions import CylinderFunction
from .grids import TimeGrid
from .phicalc import PhiContext, _second_difference, phi_norm_sq
from .stepfn import StepFunction

# Guard for the exponential functional: exponents beyond this overflow.
MAX_NORM_SQ = 700.0

# Fewest rows per sampler block that the isometry suite asks for, for its
# dense forms: a (rows x cells) by (cells x cells) product runs at full
# BLAS speed from about 128 rows. At 2048 cells x 2000 paths on one BLAS
# thread, one form took 0.52 s in 32-row blocks, 0.34 s in 128-row blocks
# and 0.37 s unblocked.
_FORM_ROWS = 128


def left_corrections(grid: TimeGrid, ctx: PhiContext) -> np.ndarray:
    """Per-cell R(t_i, t_{i+1}) - R(t_i, t_i), exactly the integral of
    K(s, t_i) over the cell. This is the Wick correction kernel for
    integrands frozen at left endpoints."""
    two_h = 2.0 * ctx.h
    t = grid.points**two_h
    dt = grid.spacings**two_h
    return 0.5 * (t[1:] - t[:-1] - dt)


def _step_levels_on_path(f: StepFunction, grid: TimeGrid) -> np.ndarray:
    """Levels of f on the path cells; f's breakpoints must be path points."""
    try:
        grid.restriction_indices(f.grid)
    except GridMismatchError as exc:
        raise GridMismatchError(
            "step-function breakpoints must be a subset of the path grid"
        ) from exc
    return np.asarray(f(grid.points[:-1]), dtype=float)


def wick_integral_deterministic(f: StepFunction, w: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Integral of a deterministic step function against the noise, per row.

    For deterministic integrands the Wick correction vanishes, so this is
    the plain left-endpoint sum; its law is exactly N(0, ||f||^2_phi).
    """
    return _noise_sums(_step_levels_on_path(f, grid), w)


def _noise_sums(levels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i levels_i dW_i per row of w."""
    return (levels * np.diff(w, axis=1)).sum(axis=1)


def cylinder_integral_terms(
    fn: CylinderFunction, values: np.ndarray, grid: TimeGrid, ctx: PhiContext
) -> tuple[np.ndarray, np.ndarray]:
    """(raw Riemann sums, correction sums) for h(W) dW, rows = paths.

    The Wick integral of h(W_t) dW_t with left endpoints is raw - corr.
    """
    w = np.atleast_2d(values)
    left = w[:, :-1]
    # the increments are taken after h(W) is evaluated, so that at most
    # three (paths x cells) temporaries are alive at once
    raw = (fn.value(left) * np.diff(w, axis=1)).sum(axis=1)
    corr = (fn.deriv(left) * left_corrections(grid, ctx)).sum(axis=1)
    return raw, corr


def exponential_block(f: StepFunction, ctx: PhiContext, grid: TimeGrid) -> Callable[[np.ndarray], np.ndarray]:
    """The function from a row block of paths on grid to
    exp( integral of f dW - ||f||^2_phi / 2 ) per row, mean-one by
    construction, with the norm and the step levels computed once for all
    blocks; refused when ||f||^2_phi exceeds MAX_NORM_SQ."""
    norm_sq = phi_norm_sq(f, ctx)
    if norm_sq > MAX_NORM_SQ:
        raise ValueError(
            f"||f||^2_phi = {norm_sq:.3e} exceeds the overflow guard {MAX_NORM_SQ}"
        )
    levels = _step_levels_on_path(f, grid)
    return lambda wb: np.exp(_noise_sums(levels, wb) - 0.5 * norm_sq)


class IsometryKernels(NamedTuple):
    """Gamma and A o A^T, the n x n kernels of the cylinder isometry's
    forms, with their sums, which are all a form with a constant factor
    needs."""

    gamma: np.ndarray
    cross: np.ndarray
    gamma_sum: float
    cross_sum: float


def isometry_kernels(grid: TimeGrid, ctx: PhiContext) -> IsometryKernels:
    """The kernels of the cylinder isometry's forms on grid.

    Gamma_ij = Cov(dW_i, dW_j) is the phi rectangle matrix and A_ij =
    R(t_i, t_{j+1}) - R(t_i, t_j) = Cov(W_i, dW_j). Neither depends on the
    integrand or the paths, so a suite builds them, and their sums, once
    for all its checks and row blocks.
    """
    r = covariance_grid(grid.points, ctx.hurst)
    gamma = _second_difference(r)
    a = r[:-1, 1:] - r[:-1, :-1]
    del r  # so that at most three n x n arrays are alive at once
    cross = a * a.T
    return IsometryKernels(gamma, cross, gamma.sum(), cross.sum())


def isometry_check(
    integrand: CylinderFunction | StepFunction,
    w: np.ndarray,
    ctx: PhiContext,
    grid: TimeGrid,
    name: str | None = None,
    kernels: IsometryKernels | None = None,
) -> np.ndarray:
    """Second-moment identity for the Wick integral over [0, T]: the
    (2, paths) rows of both sides, per path, for a paired comparison.

    Left side: per-path squared integral. For h(W) it is S^2 with
    S = sum_i h(W_i) dW_i - h'(W_i) A_ii, exactly the divergence of
    sum_i h(W_i) 1_(t_i, t_{i+1}], so the divergence isometry holds on the
    grid: E[S^2] = E[f.Gamma.f + d.(A o A^T).d], f = h(W_left), d = h'(W_left),
    with the kernels of `isometry_kernels`. The right side is that per-path
    form, or ||f||^2_phi for a step f. name labels the check for a
    profiler's span; its report carries the name.

    kernels, when given, is isometry_kernels(grid, ctx), shared between
    checks and row blocks; otherwise the call builds it. A polynomial h
    with at most one recorded coefficient (CylinderFunction.coeffs) has
    constant f = c and zero d, so its right side is c^2 sum(Gamma); one
    with two has constant d = h' and its d form is h'^2 sum(A o A^T). Any
    other form is dense. Both sides are evaluated on the rows of w at
    once: the left side is a row sum, whose bits no blocking moves, while
    the dense forms are matrix products whose accumulation order the BLAS
    picks from the row count, so they keep their bits only on blocks of the
    same rows.
    """
    if isinstance(integrand, StepFunction):
        lhs = wick_integral_deterministic(integrand, w, grid) ** 2
        return np.stack((lhs, np.full(lhs.shape, phi_norm_sq(integrand, ctx))))
    gamma, cross_kernel, gamma_sum, cross_sum = isometry_kernels(grid, ctx) if kernels is None else kernels
    coeffs, origin = integrand.coeffs, np.zeros(1)
    f_sum = integrand.value(origin)[0] ** 2 * gamma_sum if coeffs is not None and len(coeffs) <= 1 else None
    d_sum = integrand.deriv(origin)[0] ** 2 * cross_sum if coeffs is not None and len(coeffs) <= 2 else None

    def form(factor, kernel, constant, left):
        if constant is not None:
            return np.full(left.shape[0], constant)
        x = factor(left)
        return np.einsum("pi,pi->p", x @ kernel, x)

    raw, corr = cylinder_integral_terms(integrand, w, grid, ctx)
    left = w[:, :-1]
    rhs = form(integrand.value, gamma, f_sum, left)
    rhs += form(integrand.deriv, cross_kernel, d_sum, left)
    return np.stack(((raw - corr) ** 2, rhs))
