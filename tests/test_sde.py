"""Linear-drift moment oracle against an independent incomplete-gamma route."""

import numpy as np
import pytest

import oracles
from fracwick import HurstParameter, PhiContext, StepFunction, TimeGrid, fou_oracle, phi_norm_sq


# The step projection (2048 cells) is the oracle's only approximation. Its
# relative error, measured 3.1e-6 at H = 0.55 and at most 8.3e-8 at
# H = 0.7 and 0.9, grows as H approaches 1/2.
@pytest.mark.parametrize("h, rel", [(0.55, 1e-5), (0.7, 1e-6), (0.9, 1e-6)])
def test_fou_oracle_matches_incomplete_gamma(h, rel):
    times = np.array([0.5, 1.0])
    means, variances = fou_oracle(1.0, 1.0, 1.0, times, PhiContext(HurstParameter(h)))
    np.testing.assert_allclose(means, np.exp(-times), rtol=1e-15)
    for t, var in zip(times, variances):
        want = oracles.fou_variance_gammainc(1.0, 1.0, t, h)
        assert var == pytest.approx(want, rel=rel), f"H={h}, t={t}: {var} vs {want}"


@pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
def test_fou_oracle_matches_dense_phi_norm(h):
    # the Toeplitz lag-sum route against the dense rectangle quadratic form
    # on the same 2048-cell midpoint step projection
    ctx = PhiContext(HurstParameter(h))
    times = np.array([0.0, 0.5, 1.0])
    _, variances = fou_oracle(1.5, 0.8, 1.0, times, ctx)
    assert variances[0] == 0.0
    for t, var in zip(times[1:], variances[1:]):
        proj = StepFunction.from_callable(
            lambda s: np.exp(-1.5 * (t - s)), TimeGrid.uniform(2048, t)
        )
        want = 0.8 * 0.8 * phi_norm_sq(proj, ctx)
        assert var == pytest.approx(want, rel=1e-12), f"H={h}, t={t}: {var} vs {want}"
