"""Wick-type noise integrals on grids, with exact left-endpoint corrections.

The discrete integral of a random integrand F against the noise subtracts,
cell by cell, the exact kernel integral that converts an ordinary product
into a Wick product: for F = h(W) the correction on [t_i, t_{i+1}] is
h'(W_{t_i}) (R(t_i, t_{i+1}) - R(t_i, t_i)), computed from R directly, never
by quadrature of the singular kernel.

Every integral takes the ensemble as a (paths x nodes) matrix of noise
values on a grid and returns one value per row; one path is a one-row
matrix.
"""
from __future__ import annotations

import numpy as np

from .errors import GridMismatchError
from .functions import CylinderFunction
from .grids import TimeGrid
from .mc import MonteCarloReport
from .phicalc import PhiContext, kernel_K_array, phi_norm_sq, rect_weight_matrix
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

    Left side: per-path squared integral. Right side: the exact rectangle
    double sum of the frozen integrand (the ||.||^2_phi part) plus the
    symmetrized double integral of the phi-derivatives,
    int int D_s F_t D_t F_s ds dt, by the 2-d trapezoid rule. For F = h(W)
    the derivative factorizes as D_s F_t = h'(W_t) K(s, t), so the second
    part is a quadratic form in h'(W) with the matrix K(s, t) K(t, s).
    Compared pairwise on common random numbers.
    """
    if isinstance(integrand, StepFunction):
        lhs = wick_integral_deterministic(integrand, w, grid) ** 2
        rhs = np.full(lhs.shape, phi_norm_sq(integrand, ctx))
        label = name or "isometry:step"
        return MonteCarloReport.from_paired(label, lhs, rhs)
    raw, corr = cylinder_integral_terms(integrand, w, grid, ctx)
    lhs = (raw - corr) ** 2
    rect = rect_weight_matrix(grid.points, ctx)
    frozen = integrand.value(w[:, :-1])
    norm_sq = np.einsum("pi,pi->p", frozen @ rect, frozen)
    pts = grid.points
    dt = grid.spacings
    weights = np.empty(pts.size)
    weights[0] = 0.5 * dt[0]
    weights[-1] = 0.5 * dt[-1]
    weights[1:-1] = 0.5 * (dt[:-1] + dt[1:])
    k_st = kernel_K_array(pts[:, None], pts[None, :], ctx)
    cross_kernel = k_st * k_st.T
    weighted = integrand.deriv(w) * weights
    cross = np.einsum("pi,pi->p", weighted @ cross_kernel, weighted)
    rhs = norm_sq + cross
    label = name or f"isometry:{integrand.description}"
    return MonteCarloReport.from_paired(label, lhs, rhs)
