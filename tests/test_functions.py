"""Exact derivatives of the function families against central differences."""

import numpy as np
import pytest

from fracwick.functions import CylinderFunction, SpaceTimeFunction
from fracwick.verify import girsanov_case_registry, ito_case_registry, wentzell_case_registry

X = np.linspace(-2.0, 2.0, 41)
STEP = 1e-5
# truncation STEP^2 |f'''| / 6 and rounding eps |f| / STEP are both near 1e-11
REL_TOL = 1e-7


def _cylinders():
    fns = {
        "poly": CylinderFunction.polynomial([0.3, -1.2, 0.5, 0.7, -0.25]),
        "monomial-3": CylinderFunction.monomial(3),
        "constant": CylinderFunction.constant(1.5),
        "exp": CylinderFunction.exponential(-0.8),
        "sin": CylinderFunction.sine(2.0),
    }
    for name, case in wentzell_case_registry().items():
        fns.update({f"wentzell-{name}-{part}": getattr(case, part) for part in ("f0", "g", "h")})
    fns.update({f"girsanov-{name}": h for name, (h, _) in girsanov_case_registry().items()})
    return fns


def _fields():
    fns = {
        "poly2d": SpaceTimeFunction.polynomial([[0.2, -1.0, 0.5], [1.5, 0.0, -0.3], [0.0, 0.4, 0.1]]),
        "from-exp": SpaceTimeFunction.from_cylinder(CylinderFunction.exponential(0.6)),
    }
    fns.update({f"ito-{name}": case.f for name, case in ito_case_registry().items()})
    return fns


def _assert_central_difference(f, df):
    want = (f(X + STEP) - f(X - STEP)) / (2.0 * STEP)
    scale = np.maximum(1.0, np.maximum(np.abs(f(X)), np.abs(want)))
    np.testing.assert_array_less(np.abs(df(X) - want), REL_TOL * scale)


@pytest.mark.parametrize("name, fn", sorted(_cylinders().items()))
def test_cylinder_derivatives_match_central_differences(name, fn):
    _assert_central_difference(fn.value, fn.deriv)
    _assert_central_difference(fn.deriv, fn.deriv2)


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("name, fn", sorted(_fields().items()))
def test_field_partials_match_central_differences(name, fn, s):
    _assert_central_difference(lambda x: fn.value(s, x), lambda x: fn.dx(s, x))
    _assert_central_difference(lambda x: fn.dx(s, x), lambda x: fn.dxx(s, x))
