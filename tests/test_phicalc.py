"""Kernel calculus: the R-difference kernels against the scalar oracles of
tests/oracles.py, and those oracles against quadrature and algebraic laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracwick import (
    HurstParameter,
    LongMemoryRequiredError,
    PhiContext,
    StepFunction,
    TimeGrid,
    phi_norm_sq,
    rect_weight_matrix,
)
from fracwick.phicalc import kernel_K_array
from fracwick.verify import drift_shift_at

CTX = PhiContext(HurstParameter(0.75))


def random_step_function(rng, horizon=1.0, max_cells=5):
    n = int(rng.integers(1, max_cells + 1))
    cuts = np.sort(rng.uniform(0.05, horizon - 0.05, size=n - 1)) if n > 1 else []
    pts = np.concatenate([[0.0], cuts, [horizon]])
    levels = rng.uniform(-2.0, 2.0, size=n)
    return StepFunction(TimeGrid(pts), levels)


class TestPointwiseKernel:
    def test_frozen_values(self):
        assert kernel_K_array(1.0, 1.0, CTX) == pytest.approx(0.75, rel=1e-15)
        assert kernel_K_array(0.5, 1.0, CTX) == pytest.approx(1.0606601717798214, rel=1e-14)

    @given(pts=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=6, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, pts):
        # phi(s, t) = phi(t, s), so the rectangle matrix is symmetric
        rect = rect_weight_matrix(np.sort(np.array(pts)), CTX)
        np.testing.assert_allclose(rect, rect.T, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("h", [0.5, 0.4, 0.2])
    def test_short_memory_rejected(self, h):
        with pytest.raises(LongMemoryRequiredError):
            PhiContext(HurstParameter(h))


class TestKernelK:
    @given(t=st.floats(0.01, 5.0), h=st.floats(0.55, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_diagonal_closed_form(self, t, h):
        ctx = PhiContext(HurstParameter(h))
        want = h * t ** (2.0 * h - 1.0)
        assert kernel_K_array(t, t, ctx) == pytest.approx(want, rel=1e-12)

    @given(
        s=st.floats(0.05, 2.0),
        t=st.floats(0.05, 2.0),
        h=st.floats(0.55, 0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_is_time_derivative_of_covariance(self, s, t, h):
        # K(s, t) = dR(s, t)/ds; finite differences degrade near the
        # diagonal kink, so keep a gap.
        if abs(s - t) < 0.1:
            return
        ctx = PhiContext(HurstParameter(h))
        eps = 1e-6
        fd = (oracles.covariance(s + eps, t, h) - oracles.covariance(s - eps, t, h)) / (2.0 * eps)
        assert kernel_K_array(s, t, ctx) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize(
        "s,lo,hi",
        [
            (0.7, 0.0, 1.0),
            (0.7, 0.2, 0.5),
            (0.1, 0.5, 2.0),
            (1.5, 0.3, 0.9),
            (0.4, 0.4, 1.1),
        ],
    )
    def test_increment_matches_quadrature(self, s, lo, hi):
        # K(s, hi) - K(s, lo) is the integral of phi(s, .) over [lo, hi].
        from scipy import integrate

        h = CTX.h
        got = kernel_K_array(s, hi, CTX) - kernel_K_array(s, lo, CTX)
        pts = [s] if lo < s < hi else None
        want, _ = integrate.quad(
            lambda v: h * (2.0 * h - 1.0) * abs(s - v) ** (2.0 * h - 2.0),
            lo,
            hi,
            points=pts,
            limit=200,
        )
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), f"s={s}, [{lo},{hi}]"


class TestRectIntegral:
    def test_frozen_value(self):
        got = oracles.phi_rect_integral(0.0, 0.5, 0.5, 1.0, CTX.h)
        assert got == pytest.approx(0.1464466094067262, rel=1e-14)

    @pytest.mark.parametrize(
        "rect",
        [
            (0.0, 0.5, 0.5, 1.0),
            (0.1, 0.9, 0.2, 0.8),
            (0.0, 1.0, 0.0, 1.0),
            (0.3, 0.4, 0.7, 1.5),
            (0.0, 0.25, 1.0, 2.0),
        ],
    )
    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_matches_adaptive_quadrature(self, rect, h):
        got = oracles.phi_rect_integral(*rect, h)
        want = oracles.phi_rect_quadrature(*rect, h)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9), (
            f"rectangle {rect} at H={h}: closed form {got} vs quadrature {want}"
        )

    @given(
        a=st.floats(0.0, 1.0),
        w1=st.floats(0.01, 1.0),
        c=st.floats(0.0, 1.0),
        w2=st.floats(0.01, 1.0),
        split=st.floats(0.1, 0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_additive_under_splitting(self, a, w1, c, w2, split):
        b, d = a + w1, c + w2
        m = a + split * w1
        h = CTX.h
        whole = oracles.phi_rect_integral(a, b, c, d, h)
        parts = oracles.phi_rect_integral(a, m, c, d, h) + oracles.phi_rect_integral(m, b, c, d, h)
        assert parts == pytest.approx(whole, rel=1e-10, abs=1e-13)

    def test_full_square_is_t_power(self):
        # [0,T]^2 integral of phi is exactly Var W_T = T^{2H}
        for t_end in (0.5, 1.0, 2.0):
            got = oracles.phi_rect_integral(0.0, t_end, 0.0, t_end, CTX.h)
            assert got == pytest.approx(t_end**1.5, rel=1e-13)
            rect = rect_weight_matrix(np.linspace(0.0, t_end, 7), CTX)
            assert rect.sum() == pytest.approx(t_end**1.5, rel=1e-13)

    def test_bad_rectangle_rejected(self):
        with pytest.raises(ValueError):
            oracles.phi_rect_integral(0.5, 0.4, 0.0, 1.0, CTX.h)

    def test_weight_matrix_matches_cellwise_integrals(self):
        pts = np.array([0.0, 0.3, 0.55, 1.0])
        rect = rect_weight_matrix(pts, CTX)
        for i in range(3):
            for j in range(3):
                want = oracles.phi_rect_integral(pts[i], pts[i + 1], pts[j], pts[j + 1], CTX.h)
                assert rect[i, j] == pytest.approx(want, rel=1e-12), (i, j)
        np.testing.assert_allclose(rect, rect.T, rtol=1e-12)


class TestInnerProduct:
    @given(
        s=st.floats(0.01, 3.0),
        t=st.floats(0.01, 3.0),
        h=st.floats(0.52, 0.98),
    )
    @settings(max_examples=200, deadline=None)
    def test_indicator_inner_product_is_covariance(self, s, t, h):
        got = oracles.phi_inner_product(
            StepFunction.indicator(0.0, s), StepFunction.indicator(0.0, t), h
        )
        want = oracles.covariance(s, t, h)
        assert got == pytest.approx(want, rel=1e-12), (
            f"<1_[0,{s}), 1_[0,{t})> = {got} but R = {want} at H={h}"
        )

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bilinearity(self, seed):
        # ||f + c g||^2 = ||f||^2 + 2c <f, g> + c^2 ||g||^2, with f + c g
        # on the union of the two grids
        rng = np.random.default_rng(seed)
        f = random_step_function(rng)
        g = random_step_function(rng)
        c = float(rng.uniform(-3.0, 3.0))
        fg = oracles.phi_inner_product(f, g, CTX.h)
        assert fg == pytest.approx(oracles.phi_inner_product(g, f, CTX.h), rel=1e-11, abs=1e-14)
        pts = np.union1d(f.grid.points, g.grid.points)
        combo = StepFunction(TimeGrid(pts), f(pts[:-1]) + c * g(pts[:-1]))
        lhs = phi_norm_sq(combo, CTX)
        rhs = phi_norm_sq(f, CTX) + 2.0 * c * fg + c * c * phi_norm_sq(g, CTX)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12), (
            f"bilinearity broke for seed {seed}: {lhs} vs {rhs}"
        )

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_cauchy_schwarz_and_positivity(self, seed):
        rng = np.random.default_rng(seed)
        f = random_step_function(rng)
        g = random_step_function(rng)
        nf = phi_norm_sq(f, CTX)
        ng = phi_norm_sq(g, CTX)
        assert nf >= -1e-12 and ng >= -1e-12
        fg = oracles.phi_inner_product(f, g, CTX.h)
        assert fg * fg <= nf * ng * (1.0 + 1e-9) + 1e-12, (
            f"Cauchy-Schwarz violated: <f,g>^2 = {fg * fg} > {nf * ng}"
        )

    def test_norm_is_self_inner_product(self):
        rng = np.random.default_rng(8)
        f = random_step_function(rng)
        assert phi_norm_sq(f, CTX) == pytest.approx(
            oracles.phi_inner_product(f, f, CTX.h), rel=1e-13
        )

    def test_refinement_invariance(self):
        f = StepFunction(TimeGrid(np.array([0.0, 0.5, 1.0])), np.array([2.0, -1.0]))
        fine_pts = np.array([0.0, 0.125, 0.5, 0.6, 0.875, 1.0])
        f_fine = StepFunction(TimeGrid(fine_pts), np.asarray(f(fine_pts[:-1])))
        a = phi_norm_sq(f, CTX)
        b = phi_norm_sq(f_fine, CTX)
        assert a == pytest.approx(b, rel=1e-12), f"norm changed under refinement: {a} vs {b}"
        g = StepFunction.indicator(0.2, 0.9)
        a = oracles.phi_inner_product(f, g, CTX.h)
        b = oracles.phi_inner_product(f_fine, g, CTX.h)
        assert a == pytest.approx(b, rel=1e-12), (
            f"inner product changed under refinement: {a} vs {b}"
        )

    def test_indicator_norm_is_variance(self):
        for t_end in (0.3, 1.0, 1.7):
            f = StepFunction.indicator(0.0, t_end)
            assert phi_norm_sq(f, CTX) == pytest.approx(t_end**1.5, rel=1e-13)


class TestPhiOperator:
    def test_indicator_gives_kernel(self):
        u = 0.8
        g = StepFunction.indicator(0.0, u)
        for t in (0.1, 0.5, 0.8, 1.3):
            got = oracles.phi_operator(g, t, CTX.h)
            want = kernel_K_array(t, u, CTX)
            assert got == pytest.approx(want, rel=1e-12), f"t={t}"

    def test_vectorized_matches_scalar(self):
        g = StepFunction(TimeGrid(np.array([0.0, 0.4, 1.0])), np.array([1.5, -0.5]))
        ts = np.array([0.05, 0.4, 0.99, 2.0])
        vec = oracles.phi_operator(g, ts, CTX.h)
        for i, t in enumerate(ts):
            assert vec[i] == pytest.approx(oracles.phi_operator(g, float(t), CTX.h), rel=1e-13)

    def test_integrates_against_levels(self):
        # (Phi g)(t) integrated over a cell recovers rectangle integrals:
        # int_a^b (Phi g)(t) dt = sum_j c_j phi_rect([a,b] x cell_j)
        g = StepFunction(TimeGrid(np.array([0.0, 0.6, 1.0])), np.array([2.0, -1.0]))
        a, b = 0.2, 0.9
        want = 2.0 * oracles.phi_rect_integral(a, b, 0.0, 0.6, CTX.h) - oracles.phi_rect_integral(
            a, b, 0.6, 1.0, CTX.h
        )
        got = _midpoint_integral(g, a, b)
        assert got == pytest.approx(want, rel=1e-4), f"{got} vs {want}"

    @pytest.mark.parametrize("t", [0.3, 0.75, 1.0, 1.4])
    def test_integral_from_zero_is_the_drift_shift(self, t):
        # the girsanov shift at t is the integral of Phi g over [0, t]
        g = StepFunction(TimeGrid(np.array([0.0, 0.35, 0.8, 1.0])), np.array([1.5, -0.3, 0.8]))
        want = _midpoint_integral(g, 0.0, t)
        assert drift_shift_at(g, t, CTX) == pytest.approx(want, rel=1e-4, abs=1e-6)

    def test_negative_time_rejected(self):
        g = StepFunction.indicator(0.0, 1.0)
        with pytest.raises(ValueError):
            oracles.phi_operator(g, -0.5, CTX.h)


def _midpoint_integral(g, a, b, m=20000):
    """Midpoint rule for the integral of (Phi g)(t) over [a, b]."""
    ts = np.linspace(a, b, m + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    return float(np.sum(oracles.phi_operator(g, mids, CTX.h)) * (b - a) / m)
