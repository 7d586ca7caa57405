"""Piecewise-constant functions on finite grids.

The inner-product calculus is exact on this class, so it is the only
deterministic-integrand representation the library exposes. Level i applies
on [t_i, t_{i+1}); the function is 0 outside [t_0, t_n].
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import TimeGrid


@dataclass(frozen=True)
class StepFunction:
    """Right-open piecewise-constant function on its grid, 0 outside."""

    grid: TimeGrid
    levels: np.ndarray

    def __post_init__(self) -> None:
        lv = np.asarray(self.levels, dtype=float).copy()
        if lv.shape != (self.grid.n_intervals,):
            raise ValueError("need one level per grid interval")
        if not np.all(np.isfinite(lv)):
            raise ValueError("levels must be finite")
        lv.flags.writeable = False
        object.__setattr__(self, "levels", lv)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, level: float, horizon: float) -> "StepFunction":
        return cls(TimeGrid(np.array([0.0, float(horizon)])), np.array([float(level)]))

    @classmethod
    def indicator(cls, a: float, b: float) -> "StepFunction":
        """Indicator of [a, b) as a step function (a >= 0, b > a)."""
        if a < 0 or b <= a:
            raise ValueError("need 0 <= a < b")
        if a == 0.0:
            return cls(TimeGrid(np.array([0.0, b])), np.array([1.0]))
        return cls(TimeGrid(np.array([0.0, a, b])), np.array([0.0, 1.0]))

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray], grid: TimeGrid) -> "StepFunction":
        """Projection by midpoint sampling on the given grid."""
        mids = 0.5 * (grid.points[:-1] + grid.points[1:])
        return cls(grid, np.asarray(fn(mids), dtype=float))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, u: float | np.ndarray) -> np.ndarray | float:
        uu = np.asarray(u, dtype=float)
        idx = np.searchsorted(self.grid.points, uu, side="right") - 1
        inside = (uu >= self.grid.points[0]) & (uu < self.grid.points[-1])
        out = np.where(inside, np.take(self.levels, np.clip(idx, 0, self.levels.size - 1)), 0.0)
        return float(out) if np.isscalar(u) else out

    @property
    def horizon(self) -> float:
        return self.grid.horizon

