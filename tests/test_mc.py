"""Paired Monte Carlo reports against the empirical likelihood written out
by another route, and the power of the paired z against a skewed gap."""

import math

import numpy as np
import pytest

import oracles
from fracwick.mc import Z_THRESHOLD, MonteCarloReport


def _paired(diff):
    return MonteCarloReport.from_paired("x", diff, np.zeros(diff.size))


def _skewed(size=2000, seed=1):
    """Log-normal differences centred on 0, sample skewness about 11, and
    their stderr."""
    x = np.random.default_rng(seed).lognormal(0.0, 1.3, size)
    x -= x.mean()
    return x, x.std(ddof=1) / math.sqrt(size)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shift", [0.05, -0.2, 0.3])
def test_paired_z_is_the_empirical_likelihood_root(seed, shift):
    rng = np.random.default_rng(seed)
    rhs = rng.normal(size=500)
    lhs = rhs + rng.exponential(size=500) - 1.0 + shift
    report = MonteCarloReport.from_paired("x", lhs, rhs)
    assert report.z_score == pytest.approx(oracles.empirical_likelihood_z(lhs - rhs), rel=1e-9)
    assert report.verdict == (abs(report.z_score) < Z_THRESHOLD)


def test_symmetric_differences_give_about_the_plain_t():
    x = np.random.default_rng(0).normal(size=2000)
    x -= x.mean()
    se = x.std(ddof=1) / math.sqrt(x.size)
    for t in (-4.0, 1.0, 3.0):
        assert _paired(x + t * se).z_score == pytest.approx(t, abs=0.02)


def test_skewness_of_the_test_differences():
    x, _ = _skewed()
    assert 9.0 < np.mean((x / x.std()) ** 3) < 12.0


@pytest.mark.parametrize("shift", [-30.0, -8.0, 8.0, 30.0])
def test_gap_of_either_sign_to_a_skew_fails(shift):
    # right-skewed differences shifted by `shift` stderr: the gap against
    # the skew is the one a normal-theory skewness correction loses
    x, se = _skewed()
    report = _paired(x + shift * se)
    assert not report.verdict, f"z = {report.z_score:.2f}"
    assert math.copysign(1.0, report.z_score) == math.copysign(1.0, shift)


def test_z_increases_with_a_shift():
    x, se = _skewed()
    # past 20 stderr every difference is positive and z is infinite
    z = [_paired(x + k * se).z_score for k in np.linspace(-40.0, 15.0, 111)]
    assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0)
    assert _paired(x).verdict


def test_differences_on_one_side_of_zero_give_an_infinite_z():
    d = np.random.default_rng(2).exponential(size=50)
    assert _paired(d).z_score == math.inf and _paired(-d).z_score == -math.inf
    assert not _paired(d).verdict
    # an exact zero is on the boundary: no weighting gives mean 0 there either
    assert _paired(np.append(d, 0.0)).z_score == math.inf


def test_a_nan_difference_gives_a_nan_z_and_fails():
    d = np.array([1.0, -2.0, np.nan, 0.5])
    report = _paired(d)
    assert math.isnan(report.z_score) and not report.verdict


def test_estimate_oracle_and_stderr_are_the_plain_ones():
    rng = np.random.default_rng(9)
    lhs, rhs = rng.exponential(size=300), rng.normal(size=300)
    report = MonteCarloReport.from_paired("x", lhs, rhs)
    assert report.estimate == pytest.approx(lhs.mean(), rel=1e-14)
    assert report.oracle == pytest.approx(rhs.mean(), rel=1e-14)
    assert report.stderr == pytest.approx((lhs - rhs).std(ddof=1) / math.sqrt(300), rel=1e-12)


@pytest.mark.parametrize(
    "estimate, scale, z",
    [(4.77e-7, 1.0, math.inf), (4.77e-7, 2.45e9, 0.0), (1e-13, 1.0, 0.0), (1e-3, 1e8, math.inf)],
)
def test_a_constant_gap_is_exact_within_1e_12_of_the_cancelling_terms(estimate, scale, z):
    # every sample equal, so stderr 0: the gap is rounding when within 1e-12
    # of the largest of scale, |estimate| and |oracle|, and infinitely
    # significant otherwise
    report = MonteCarloReport.from_samples("x", np.full(8, estimate), 0.0, scale=scale)
    assert report.stderr == 0.0 and report.z_score == z
    assert report.verdict == (z == 0.0)
