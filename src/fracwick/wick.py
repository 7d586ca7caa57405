"""Wick-type noise integrals on grids, with exact left-endpoint corrections.

The discrete integral of a random integrand F against the noise subtracts,
cell by cell, the exact kernel integral that converts an ordinary product
into a Wick product: for F = h(W) the correction on [t_i, t_{i+1}] is
h'(W_{t_i}) (R(t_i, t_{i+1}) - R(t_i, t_i)), computed from R directly, never
by quadrature of the singular kernel. The second-moment identity is exact on
the grid as well: both of its kernels are differences of R.

Every integral takes the ensemble as a (paths x nodes) matrix of noise
values on a grid and returns one value per row; one path is a one-row
matrix.
"""
from __future__ import annotations

import numpy as np

from .errors import GridMismatchError
from .fbm import covariance_grid
from .functions import CylinderFunction
from .grids import TimeGrid
from .mc import MonteCarloReport
from .phicalc import PhiContext, phi_norm_sq
from .stepfn import StepFunction

# Guard for the exponential functional: exponents beyond this overflow.
MAX_NORM_SQ = 700.0


def left_corrections(grid: TimeGrid, ctx: PhiContext) -> np.ndarray:
    """Per-cell R(t_i, t_{i+1}) - R(t_i, t_i), exactly the integral of
    K(s, t_i) over the cell. This is the Wick correction kernel for
    integrands frozen at left endpoints."""
    two_h = 2.0 * ctx.h
    t = grid.points**two_h
    dt = grid.spacings**two_h
    return 0.5 * (t[1:] - t[:-1] - dt)


def diagonal_cell_integrals(grid: TimeGrid, ctx: PhiContext) -> np.ndarray:
    """Per-cell integral of K(s, s) = H s^(2H-1): half the increment of t^2H."""
    two_h = 2.0 * ctx.h
    t = grid.points**two_h
    return 0.5 * (t[1:] - t[:-1])


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
    levels = _step_levels_on_path(f, grid)
    return (levels * np.diff(w, axis=1)).sum(axis=1)


def cylinder_integral_terms(
    fn: CylinderFunction, values: np.ndarray, grid: TimeGrid, ctx: PhiContext
) -> tuple[np.ndarray, np.ndarray]:
    """(raw Riemann sums, correction sums) for h(W) dW, rows = paths.

    The Wick integral of h(W_t) dW_t with left endpoints is raw - corr.
    """
    w = np.atleast_2d(values)
    dw = np.diff(w, axis=1)
    left = w[:, :-1]
    corr_kernel = left_corrections(grid, ctx)
    raw = (fn.value(left) * dw).sum(axis=1)
    corr = (fn.deriv(left) * corr_kernel).sum(axis=1)
    return raw, corr


def exponential_functional(
    f: StepFunction, w: np.ndarray, ctx: PhiContext, grid: TimeGrid
) -> np.ndarray:
    """exp( integral of f dW - ||f||^2_phi / 2 ) per row, mean-one by
    construction; refused when ||f||^2_phi exceeds MAX_NORM_SQ."""
    norm_sq = phi_norm_sq(f, ctx)
    if norm_sq > MAX_NORM_SQ:
        raise ValueError(
            f"||f||^2_phi = {norm_sq:.3e} exceeds the overflow guard {MAX_NORM_SQ}"
        )
    return np.exp(wick_integral_deterministic(f, w, grid) - 0.5 * norm_sq)


def isometry_check(
    integrand: CylinderFunction | StepFunction,
    w: np.ndarray,
    ctx: PhiContext,
    grid: TimeGrid,
    name: str | None = None,
) -> MonteCarloReport:
    """Second-moment identity for the Wick integral over [0, T].

    Left side: per-path squared integral. For h(W) it is S^2 with
    S = sum_i h(W_i) dW_i - h'(W_i) A_ii, exactly the divergence of
    sum_i h(W_i) 1_(t_i, t_{i+1}], so the divergence isometry holds on the
    grid: E[S^2] = E[f.Gamma.f + d.(A o A^T).d], f = h(W_left), d = h'(W_left),
    Gamma_ij = Cov(dW_i, dW_j) the phi rectangle matrix and A_ij =
    R(t_i, t_{j+1}) - R(t_i, t_j) = Cov(W_i, dW_j). The right side is that
    per-path form, or ||f||^2_phi for a step f. Compared pairwise.
    """
    if isinstance(integrand, StepFunction):
        lhs = wick_integral_deterministic(integrand, w, grid) ** 2
        rhs = np.full(lhs.shape, phi_norm_sq(integrand, ctx))
        label = name or "isometry:step"
        return MonteCarloReport.from_paired(label, lhs, rhs)
    raw, corr = cylinder_integral_terms(integrand, w, grid, ctx)
    lhs = (raw - corr) ** 2
    # each n x n or paths x n array is dropped once used: with two checks
    # in flight this bounds the suite's peak memory
    r = covariance_grid(grid.points, ctx.hurst)
    gamma = r[1:, 1:] - r[:-1, 1:]  # rect_weight_matrix's terms, in its order
    gamma -= r[1:, :-1]
    gamma += r[:-1, :-1]
    a = r[:-1, 1:] - r[:-1, :-1]
    del r
    cross_kernel = a * a.T
    del a
    frozen = integrand.value(w[:, :-1])
    norm_sq = np.einsum("pi,pi->p", frozen @ gamma, frozen)
    del frozen, gamma
    deriv = integrand.deriv(w[:, :-1])
    cross = np.einsum("pi,pi->p", deriv @ cross_kernel, deriv)
    rhs = norm_sq + cross
    label = name or f"isometry:{integrand.description}"
    return MonteCarloReport.from_paired(label, lhs, rhs)
