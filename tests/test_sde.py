"""Linear-drift moment oracle against an independent incomplete-gamma route."""

import numpy as np
import pytest

import oracles
from fracwick import HurstParameter, PhiContext, fou_oracle


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
