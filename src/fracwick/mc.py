"""Monte-Carlo estimates with honest error bars and verdicts.

Aggregation is order-independent: per-replication values are collected by
replication index and reduced with exactly-rounded summation (math.fsum),
so worker count and completion order cannot change a reported digit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# |z| below this is "consistent": under a correct implementation the
# per-check false-alarm probability is below 1e-4 (two-sided normal tail).
Z_THRESHOLD = 4.0

# Degenerate comparisons (stderr exactly 0) happen for deterministic cases,
# where estimate and oracle agree up to float rounding rather than to the
# last bit; gaps below this relative level count as exact.
EXACT_REL_TOL = 1e-12

# Fourth powers of deviations overflow beyond about 2**255. Larger samples
# have their moments taken in units of a power of two, which is exact;
# smaller ones keep the plain formulas, because numpy's x**4 (libm's pow)
# is not exactly scale-invariant and their bits would move.
_SCALE_ABOVE = 2.0**128


def fsum(values: np.ndarray) -> float:
    """Exactly-rounded sum; result independent of accumulation order."""
    return math.fsum(np.asarray(values, dtype=float).ravel())


def fmean(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float).ravel()
    return fsum(v) / v.size


def sample_stderr(values: np.ndarray) -> float:
    """Standard error of the sample mean (ddof = 1).

    This is also the delete-one jackknife stderr of the mean, whose
    variance collapses algebraically to s^2/m (a property test checks it
    against an explicit delete-one loop).
    """
    v = np.asarray(values, dtype=float).ravel()
    m = v.size
    if m < 2:
        raise ValueError("need at least two samples for a standard error")
    mu = fmean(v)
    var = fsum((v - mu) ** 2) / (m - 1)
    return math.sqrt(var / m)


def variance_stderr(values: np.ndarray) -> float:
    """Large-sample stderr of the sample variance: sqrt((m4 - s^4)/m).

    In small samples m4 - s^4 can be <= 0 (at m = 2 it always is), which
    would make any gap infinitely significant. There the plug-in of the
    exact variance of s^2, (m4 - s^4 (m - 3)/(m - 1))/m, is used; it is
    positive for every non-constant sample.

    Deviations above _SCALE_ABOVE are first divided by the power of two
    just above the largest of them, so the fourth powers stay finite
    wherever the stderr itself is.
    """
    v = np.asarray(values, dtype=float).ravel()
    m = v.size
    if m < 2:
        raise ValueError("need at least two samples")
    mu = fmean(v)
    centered = v - mu
    top = float(np.max(np.abs(centered)))
    scale = math.ldexp(1.0, math.frexp(top)[1]) if top > _SCALE_ABOVE else 1.0
    centered /= scale
    s2 = fsum(centered**2) / (m - 1)
    m4 = fsum(centered**4) / m
    var = m4 - s2 * s2
    if var <= 0.0:
        var = max(m4 - s2 * s2 * (m - 3) / (m - 1), 0.0)
    return scale * scale * math.sqrt(var / m)


@dataclass(frozen=True)
class MonteCarloReport:
    """One estimate against one target with a z-score verdict.

    stderr is >= 0; it is exactly 0 only for degenerate inputs (identical
    paired samples), in which case the z-score is defined as 0.
    """

    name: str
    estimate: float
    oracle: float
    stderr: float
    z_score: float
    n_paths: int
    verdict: bool

    @classmethod
    def build(
        cls, name: str, estimate: float, oracle: float, stderr: float, n_paths: int, scale: float = 1.0
    ) -> "MonteCarloReport":
        """Report of estimate against oracle. A gap within EXACT_REL_TOL of
        max(scale, |estimate|, |oracle|) is rounding: scale is the size of
        the terms that cancel in the estimate where the caller knows it,
        and 1 where it does not."""
        if stderr < 0 or not np.isfinite(stderr):
            raise ValueError("stderr must be finite and >= 0")
        if abs(estimate - oracle) <= EXACT_REL_TOL * max(scale, abs(estimate), abs(oracle)):
            # agreement at float-rounding scale is exact no matter how
            # small the error bar is (deterministic cases hit this)
            z = 0.0
        elif stderr == 0.0:
            z = math.inf
        else:
            z = (estimate - oracle) / stderr
        return cls(
            name=name,
            estimate=float(estimate),
            oracle=float(oracle),
            stderr=float(stderr),
            z_score=float(z),
            n_paths=int(n_paths),
            verdict=bool(abs(z) < Z_THRESHOLD),
        )

    @classmethod
    def from_samples(
        cls, name: str, samples: np.ndarray, oracle: float, scale: float = 1.0
    ) -> "MonteCarloReport":
        """Mean of iid per-path values against a fixed target; scale as in
        build."""
        s = np.asarray(samples, dtype=float).ravel()
        return cls.build(name, fmean(s), float(oracle), sample_stderr(s), s.size, scale)

    @classmethod
    def from_paired(cls, name: str, lhs: np.ndarray, rhs: np.ndarray) -> "MonteCarloReport":
        """Common-random-number comparison of the means of lhs and rhs.

        z is the signed root of the empirical likelihood ratio statistic
        for a zero mean of the paired differences (Owen 1988, Biometrika
        75:237), which is the plain paired t to first order. Its null law
        follows the skew of the differences, and it increases without bound
        as they shift: a gap of either sign stays visible however skewed
        they are.
        """
        a = np.asarray(lhs, dtype=float).ravel()
        b = np.asarray(rhs, dtype=float).ravel()
        if a.shape != b.shape:
            raise ValueError("paired samples must have equal length")
        diff = a - b
        spread = float(np.ptp(diff)) if diff.size else 0.0
        if spread == 0.0:
            # degenerate: every pair differs by the same constant, so the
            # z machinery has nothing to standardize; build() decides
            # whether the constant gap counts as exact.
            return cls.build(name, fmean(a), fmean(b), 0.0, a.size)
        se = sample_stderr(diff)
        z = _el_signed_root(diff / (se * math.sqrt(diff.size)))
        return cls(
            name=name,
            estimate=fmean(a),
            oracle=fmean(b),
            stderr=se,
            z_score=z,
            n_paths=a.size,
            verdict=bool(abs(z) < Z_THRESHOLD),
        )


def _el_signed_root(x: np.ndarray) -> float:
    """sign(mean) sqrt(-2 log R), R the empirical likelihood ratio for a
    zero mean of x: the largest prod(m w_i) over weights w on the sample
    with sum(w x) = 0. The weights are w_i = 1 / (m (1 + lam x_i)), lam the
    root of the decreasing sum(x / (1 + lam x)); w_i <= 1 brackets it. A
    sample on one side of 0 admits no such weights, so its z is infinite.
    """
    mean = fmean(x)
    if mean == 0.0:
        return 0.0
    if math.isnan(mean):
        # a NaN difference leaves no bracket, and the bisection would not end
        return math.nan
    top, bottom, m = float(x.max()), float(x.min()), x.size
    if bottom >= 0.0 or top <= 0.0:
        return math.copysign(math.inf, mean)
    lo, hi = (1.0 / m - 1.0) / top, (1.0 / m - 1.0) / bottom
    # bisection down to adjacent doubles, about 60 halvings
    while (lam := 0.5 * (lo + hi)) not in (lo, hi):
        if np.sum(x / (1.0 + lam * x)) > 0.0:
            lo = lam
        else:
            hi = lam
    stat = 2.0 * fsum(np.log1p(lam * x))
    return math.copysign(math.sqrt(max(stat, 0.0)), mean)
