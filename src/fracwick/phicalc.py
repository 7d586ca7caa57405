"""The singular-kernel inner product of the long-memory regime, from R alone.

For H > 1/2 the two-time kernel phi(s, t) = H(2H - 1)|s - t|^(2H - 2) has the
fBm covariance R as its double antiderivative, so the integral of phi over
a rectangle is a second difference of R on its corners. This module holds
only the R-difference kernels the suites use: the cell-pair rectangle
matrix and the phi-norm of a step function built on it. Nothing here
evaluates or quadratures the singular kernel pointwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LongMemoryRequiredError
from .fbm import HurstParameter, covariance_grid
from .stepfn import StepFunction


@dataclass(frozen=True)
class PhiContext:
    """Gate for the long-memory calculus: construction fails for H <= 1/2."""

    hurst: HurstParameter

    def __post_init__(self) -> None:
        if not self.hurst.is_long_memory:
            raise LongMemoryRequiredError(
                f"phi-kernel calculus needs H > 1/2, got H = {self.hurst.value}"
            )

    @property
    def h(self) -> float:
        return self.hurst.value


# No suite calls it; the benchmark's tracer patches it by name.
def kernel_K_array(s: np.ndarray, t: np.ndarray, ctx: PhiContext) -> np.ndarray:
    """K(s, t) = integral of phi(s, v) over v in [0, t], broadcast (domain
    unchecked): H(s^(2H-1) - sign(s - t)|s - t|^(2H-1)), with K(t, t) =
    H t^(2H-1)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h = ctx.h
    e = 2.0 * h - 1.0
    return h * (s**e - np.sign(s - t) * np.abs(s - t) ** e)


def _second_difference(r: np.ndarray) -> np.ndarray:
    """((R_11 - R_01) - R_10) + R_00 over the cells of the lattice r = R(u_i, u_j),
    evaluated in place in that order: entry (i, j) integrates phi over
    [u_i, u_{i+1}] x [u_j, u_{j+1}]."""
    out = r[1:, 1:] - r[:-1, 1:]
    out -= r[1:, :-1]
    out += r[:-1, :-1]
    return out


def rect_weight_matrix(breakpoints: np.ndarray, ctx: PhiContext) -> np.ndarray:
    """Matrix of phi rectangle integrals over all cell pairs of one grid."""
    return _second_difference(covariance_grid(breakpoints, ctx.hurst))


def phi_norm_sq(f: StepFunction, ctx: PhiContext) -> float:
    """||f||^2_phi = <f, f>_phi; the variance of the noise integral of f."""
    rect = rect_weight_matrix(f.grid.points, ctx)
    return float(f.levels @ rect @ f.levels)
