"""Closed symbolic families of test functions with exact derivatives.

Two families: one-variable cylinder integrands h(x) (polynomials up to
degree 4, exp(ax), sin(ax)), and space-time fields f(s, x)
(bivariate polynomials with time-polynomial coefficients, plus the same
x-only transcendentals). Derivatives are exact by construction; a
finite-difference cross-check lives in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnsupportedCaseError

MAX_POLY_DEGREE = 4

Array = np.ndarray


def _trimmed(coeffs) -> tuple[float, ...]:
    """coeffs without their trailing zeros; () is the zero polynomial."""
    out = [float(v) for v in coeffs]
    while out and out[-1] == 0.0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class CylinderFunction:
    """h with exact h' and h''. Build via the classmethod constructors only.

    degree is the polynomial degree a polynomial was built with (its
    coefficient count less one, so never below the true degree) and None
    for the transcendentals. coeffs records a polynomial's coefficients,
    lowest power first, with trailing zeros trimmed: () is the zero
    polynomial and a 1-tuple a constant, whatever the padding it was built
    with. It is None for the transcendentals. The residual arithmetic reads
    coeffs, so that it builds no factor that is identically zero; the
    isometry reads degree.
    """

    value: Callable[[Array], Array]
    deriv: Callable[[Array], Array]
    deriv2: Callable[[Array], Array]
    description: str
    degree: int | None = None
    coeffs: tuple[float, ...] | None = None

    @classmethod
    def polynomial(cls, coeffs) -> "CylinderFunction":
        """h(x) = sum_k coeffs[k] x^k, degree at most 4."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if c.size - 1 > MAX_POLY_DEGREE:
            raise UnsupportedCaseError(
                f"polynomial degree capped at {MAX_POLY_DEGREE}, got {c.size - 1}"
            )
        d1 = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
        d2 = np.polynomial.polynomial.polyder(c, 2) if c.size > 2 else np.zeros(1)
        pv = np.polynomial.polynomial.polyval
        desc = "poly(" + ",".join(format(v, "g") for v in c) + ")"
        return cls(
            value=lambda x, c=c: pv(x, c),
            deriv=lambda x, d1=d1: pv(x, d1),
            deriv2=lambda x, d2=d2: pv(x, d2),
            description=desc,
            degree=c.size - 1,
            coeffs=_trimmed(c),
        )

    @classmethod
    def monomial(cls, degree: int) -> "CylinderFunction":
        coeffs = np.zeros(degree + 1)
        coeffs[degree] = 1.0
        return cls.polynomial(coeffs)

    @classmethod
    def constant(cls, c: float) -> "CylinderFunction":
        return cls.polynomial([c])

    @classmethod
    def exponential(cls, a: float) -> "CylinderFunction":
        a = float(a)
        return cls(
            value=lambda x: np.exp(a * x),
            deriv=lambda x: a * np.exp(a * x),
            deriv2=lambda x: a * a * np.exp(a * x),
            description=f"exp({a:g}x)",
        )

    @classmethod
    def sine(cls, a: float) -> "CylinderFunction":
        a = float(a)
        return cls(
            value=lambda x: np.sin(a * x),
            deriv=lambda x: a * np.cos(a * x),
            deriv2=lambda x: -a * a * np.sin(a * x),
            description=f"sin({a:g}x)",
        )


@dataclass(frozen=True)
class SpaceTimeFunction:
    """f(s, x) with exact partials in x.

    Kinds: bivariate polynomial (coeff[m, k] multiplies s^m x^k, x-degree
    at most 4) or an x-only cylinder function. The s-antiderivative of df/ds
    with x frozen is f(t1, x) - f(t0, x), which the residual harnesses use
    for exact per-cell time integration, so no s-partial is built.

    coeffs records a polynomial field as f(s, x) = sum_m s^m P_m(x):
    coeffs[m] holds the coefficients of P_m, lowest power first, trailing
    zeros trimmed as in CylinderFunction.coeffs, and trailing zero P_m are
    dropped, so () is the zero field and a 1-tuple a field constant in
    time. It is None for the transcendentals.
    """

    value: Callable[[Array, Array], Array]
    dx: Callable[[Array, Array], Array]
    dxx: Callable[[Array, Array], Array]
    description: str
    time_dependent: bool = True
    coeffs: tuple[tuple[float, ...], ...] | None = None

    @classmethod
    def polynomial(cls, coeff) -> "SpaceTimeFunction":
        """f(s, x) = sum_{m,k} coeff[m, k] s^m x^k."""
        c = np.atleast_2d(np.asarray(coeff, dtype=float))
        if c.shape[1] - 1 > MAX_POLY_DEGREE:
            raise UnsupportedCaseError(
                f"x-degree capped at {MAX_POLY_DEGREE}, got {c.shape[1] - 1}"
            )
        pder = np.polynomial.polynomial.polyder
        c_dx = pder(c, 1, axis=1) if c.shape[1] > 1 else np.zeros((1, 1))
        c_dxx = pder(c, 2, axis=1) if c.shape[1] > 2 else np.zeros((1, 1))
        pv = np.polynomial.polynomial.polyval

        def ev(coefs):
            def f(s, x):
                # The time polynomial of each power of x is evaluated once
                # per time, then Horner's rule in x runs against the path
                # matrix: the operations of polyval2d on s broadcast to the
                # shape of x, without building that broadcast.
                return pv(x, pv(np.asarray(s, dtype=float), coefs), tensor=False)

            return f

        record = [_trimmed(row) for row in c]
        while record and not record[-1]:
            record.pop()
        return cls(
            value=ev(c),
            dx=ev(c_dx),
            dxx=ev(c_dxx),
            description=f"poly2d{c.shape}",
            time_dependent=len(record) > 1,
            coeffs=tuple(record),
        )

    @classmethod
    def from_cylinder(cls, fn: CylinderFunction) -> "SpaceTimeFunction":
        """Time-independent field from a one-variable family member."""
        return cls(
            value=lambda s, x: fn.value(x),
            dx=lambda s, x: fn.deriv(x),
            dxx=lambda s, x: fn.deriv2(x),
            description=fn.description,
            time_dependent=False,
            coeffs=fn.coeffs and (fn.coeffs,),
        )
