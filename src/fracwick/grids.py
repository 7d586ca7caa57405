"""Time grids and the ensemble CSV format."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

# Significant digits used for every CSV float so files round-trip exactly.
CSV_FLOAT_FORMAT = ".17g"

# Slack of `TimeGrid.is_uniform` in ulps of the horizon. The points of
# `TimeGrid.uniform` are rounded to the ulp of their size, so their
# spacings differ by up to about one ulp of the horizon (0.78 measured,
# n up to 2**24 + 1, horizons 0.5 to 1e5), which from a few thousand
# cells on exceeds a relative 1e-12 of the spacing.
_UNIFORM_ULPS = 4


def format_float(x: float) -> str:
    return format(float(x), CSV_FLOAT_FORMAT)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing partition 0 = t_0 < t_1 < ... < t_n of [0, T].

    Immutable; the points array is copied and write-locked at construction.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).copy()
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least the two points t_0 = 0 and t_1")
        if pts[0] != 0.0:
            raise ValueError("grid must start at t_0 = 0")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, n: int, horizon: float) -> "TimeGrid":
        """Uniform grid with n intervals on [0, horizon]."""
        if n < 1:
            raise ValueError("need at least one interval")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, float(horizon), n + 1))

    @property
    def n_intervals(self) -> int:
        return self.points.size - 1

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.points)

    def is_uniform(self) -> bool:
        """Equal spacings, to a relative 1e-12 of the first or to the
        rounding of the points, `_UNIFORM_ULPS` ulps of the horizon."""
        dt = self.spacings
        tol = max(1e-12 * dt[0], _UNIFORM_ULPS * np.finfo(float).eps * self.horizon)
        return bool(np.all(np.abs(dt - dt[0]) <= tol))

    def restriction_indices(self, coarse: "TimeGrid") -> np.ndarray:
        """Indices mapping coarse grid points into this (finer) grid.

        Raises GridMismatchError unless every coarse point is a point of
        this grid (exact float equality; grids are meant to be constructed
        by refinement, not re-derived arithmetic).
        """
        idx = np.searchsorted(self.points, coarse.points)
        ok = (idx < self.points.size) & (self.points[np.minimum(idx, self.points.size - 1)] == coarse.points)
        if not np.all(ok):
            raise GridMismatchError("coarse grid is not a subset of the fine grid")
        return idx

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.all(self.points == other.points)
        )

    def __hash__(self) -> int:
        return hash(self.points.tobytes())


def write_ensemble_csv(grid: TimeGrid, values: np.ndarray, out_path: str) -> None:
    """Long-format CSV (replication, t, value) of an ensemble matrix on grid.

    The t column is formatted once per grid, and each replication goes out
    in one write; no field can need CSV quoting.
    """
    if values.ndim != 2 or values.shape[1] != grid.points.size:
        raise GridMismatchError("ensemble rows need one value per grid point")
    times = [format_float(t) for t in grid.points]
    with open(out_path, "w", newline="") as fh:
        fh.write("replication,t,value\n")
        for k, row in enumerate(values.tolist()):
            fh.write("".join(f"{k},{t},{v:{CSV_FLOAT_FORMAT}}\n" for t, v in zip(times, row)))
