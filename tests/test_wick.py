"""Wick-Riemann integrals, exponential functionals, second-moment identity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracwick import (
    CylinderFunction,
    GridMismatchError,
    HurstParameter,
    PhiContext,
    StepFunction,
    TimeGrid,
    MonteCarloReport,
    covariance_grid,
    ensemble_values,
    exponential_functional,
    isometry_check,
    phi_norm_sq,
    wick_integral_deterministic,
)
from fracwick import wick
from fracwick.mc import fmean, sample_stderr
from fracwick.wick import cylinder_integral_terms, isometry_kernels, left_corrections

CTX = PhiContext(HurstParameter(0.75))


def _stream_zero(grid, master_seed):
    """One-row ensemble: the circulant path on stream 0 of master_seed at H = 0.75."""
    return ensemble_values("circulant", grid, CTX.hurst, master_seed, 1)


def _isometry_report(integrand, w, ctx, grid, kernels=None):
    """The paired report of isometry_check's per-path sides, as the
    isometry suite reduces them."""
    sides = isometry_check(integrand, w, ctx, grid=grid, kernels=kernels)
    return MonteCarloReport.from_paired("isometry", *sides)


def _wick_integral(fn, w, grid, ctx):
    raw, corr = cylinder_integral_terms(fn, w, grid, ctx)
    return raw - corr


class TestDeterministicIntegral:
    def test_hand_computed_sum(self):
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        w = np.array([[0.0, 2.0, -1.0]])
        f = StepFunction(grid, np.array([3.0, 10.0]))
        got = wick_integral_deterministic(f, w, grid)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(3.0 * 2.0 + 10.0 * (-3.0), rel=1e-15)

    def test_indicator_reads_off_increment(self):
        grid = TimeGrid.uniform(4, 1.0)
        w = np.array([[0.0, 1.0, 0.5, 2.0, 2.5], [0.0, 0.0, 1.0, 3.0, 3.0]])
        f = StepFunction.indicator(0.25, 0.75)
        got = wick_integral_deterministic(f, w, grid)
        np.testing.assert_allclose(got, [2.0 - 1.0, 3.0 - 0.0], rtol=1e-15)

    @given(seed=st.integers(0, 10_000), c=st.floats(-4.0, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_integrand(self, seed, c):
        rng = np.random.default_rng(seed)
        grid = TimeGrid.uniform(8, 1.0)
        w = np.concatenate([np.zeros((3, 1)), rng.normal(size=(3, 8))], axis=1)
        f = StepFunction(grid, rng.uniform(-1, 1, size=8))
        g = StepFunction(grid, rng.uniform(-1, 1, size=8))
        lhs = wick_integral_deterministic(StepFunction(grid, c * f.levels + g.levels), w, grid)
        rhs = c * wick_integral_deterministic(f, w, grid) + wick_integral_deterministic(
            g, w, grid
        )
        for p in range(3):
            assert lhs[p] == pytest.approx(rhs[p], rel=1e-11, abs=1e-13)

    def test_step_function_on_coarser_grid_is_accepted(self):
        fine = TimeGrid.uniform(8, 1.0)
        w = np.linspace(0.0, 4.0, 9)[None, :]
        f = StepFunction.constant(2.0, 1.0)
        assert wick_integral_deterministic(f, w, fine)[0] == pytest.approx(8.0, rel=1e-14)


class TestLeftCorrections:
    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_cells_match_rectangle_integrals(self, h):
        # correction_i = integral of phi over [0, t_i] x [t_i, t_{i+1}]
        ctx = PhiContext(HurstParameter(h))
        grid = TimeGrid(np.array([0.0, 0.2, 0.5, 0.8, 1.0]))
        corr = left_corrections(grid, ctx)
        pts = grid.points
        for i in range(grid.n_intervals):
            want = oracles.phi_rect_integral(0.0, pts[i], pts[i], pts[i + 1], h)
            assert corr[i] == pytest.approx(want, rel=1e-12, abs=1e-15), f"cell {i}"

    def test_first_cell_has_zero_correction(self):
        corr = left_corrections(TimeGrid.uniform(4, 1.0), CTX)
        assert corr[0] == 0.0


class TestCylinderIntegral:
    def test_constant_integrand_gives_terminal_value(self):
        grid = TimeGrid.uniform(32, 1.0)
        w = _stream_zero(grid, 2)
        raw, corr = cylinder_integral_terms(CylinderFunction.constant(1.0), w, grid, CTX)
        assert (raw - corr)[0] == pytest.approx(w[0, -1], rel=1e-13)
        assert corr[0] == 0.0

    def test_identity_integrand_matches_square_formula(self):
        # integral of W dW = (W_T^2 - T^{2H}) / 2 + residual; the per-path
        # residual shrinks under refinement and its RMS at n = 512, H = 0.7
        # stays under 0.02.
        h = HurstParameter(0.7)
        ctx = PhiContext(h)
        grid = TimeGrid.uniform(512, 1.0)
        vals = ensemble_values("circulant", grid, h, 77, 200)
        value = _wick_integral(CylinderFunction.monomial(1), vals, grid, ctx)
        rho = value - 0.5 * (vals[:, -1] ** 2 - 1.0)
        rms = float(np.sqrt(np.mean(rho**2)))
        assert rms < 0.02, f"identity residual RMS {rms:.4f} >= 0.02 at n=512"

    def test_batched_terms_match_single_path(self):
        grid = TimeGrid.uniform(16, 1.0)
        vals = ensemble_values("circulant", grid, CTX.hurst, 9, 3)
        fn = CylinderFunction.sine(1.5)
        raw, corr = cylinder_integral_terms(fn, vals, grid, CTX)
        kernel = left_corrections(grid, CTX)
        for p in range(3):
            # the single-path sums, exactly rounded
            left = vals[p, :-1]
            want_raw = math.fsum(fn.value(left) * np.diff(vals[p]))
            want_corr = math.fsum(fn.deriv(left) * kernel)
            assert raw[p] == pytest.approx(want_raw, rel=1e-12, abs=1e-14)
            assert corr[p] == pytest.approx(want_corr, rel=1e-12, abs=1e-14)


class TestExponentialFunctional:
    def test_zero_path_frozen_value(self):
        grid = TimeGrid.uniform(4, 1.0)
        flat = np.zeros((1, 5))
        f = StepFunction.indicator(0.0, 1.0)
        got = exponential_functional(f, flat, CTX, grid)[0]
        assert got == pytest.approx(math.exp(-0.5), rel=1e-13), (
            f"exp(0 - ||f||^2/2) with ||f||^2 = 1 should be {math.exp(-0.5)}"
        )

    def test_mean_one_property(self):
        grid = TimeGrid.uniform(64, 1.0)
        vals = ensemble_values("circulant", grid, CTX.hurst, 404, 4000)
        f = StepFunction.indicator(0.0, 1.0)
        eps = exponential_functional(f, vals, CTX, grid)
        z = (fmean(eps) - 1.0) / sample_stderr(eps)
        assert abs(z) < 4.0, f"mean of the exponential functional: z = {z:.2f}"

    def test_overflow_guard(self):
        f = StepFunction.constant(40.0, 1.0)
        with pytest.raises(ValueError, match="overflow guard"):
            exponential_functional(f, np.zeros((1, 3)), CTX, TimeGrid.uniform(2, 1.0))

    def test_scale_invariance_in_time_units(self):
        # epsilon(f) depends on the path only through the integral of f dW
        grid = TimeGrid.uniform(8, 1.0)
        w = _stream_zero(grid, 5)
        f = StepFunction.constant(0.7, 1.0)
        got = exponential_functional(f, w, CTX, grid)[0]
        manual = math.exp(
            0.7 * w[0, -1] - 0.5 * phi_norm_sq(f, CTX)
        )
        assert got == pytest.approx(manual, rel=1e-13)


class TestIsometry:
    def test_step_integrand_report(self):
        grid = TimeGrid.uniform(64, 1.0)
        vals = ensemble_values("circulant", grid, CTX.hurst, 21, 4000)
        f = StepFunction(
            TimeGrid(np.array([0.0, 0.25, 1.0])), np.array([1.0, -2.0])
        )
        report = _isometry_report(f, vals, CTX, grid=grid)
        assert report.verdict, f"step isometry z = {report.z_score:.2f}"
        assert report.oracle == pytest.approx(phi_norm_sq(f, CTX), rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_check_fails_without_the_wick_correction(self, monkeypatch, seed):
        # power: S without its corrections h'(W_i) A_ii has too large a
        # second moment, on the side of the skew of S^2
        monkeypatch.setattr(wick, "left_corrections", lambda grid, ctx: np.zeros(grid.n_intervals))
        ctx = PhiContext(HurstParameter(0.7))
        grid = TimeGrid.uniform(256, 1.0)
        vals = ensemble_values("circulant", grid, ctx.hurst, seed, 2000)
        kernels = isometry_kernels(grid, ctx)
        for degree in (1, 2):
            report = _isometry_report(CylinderFunction.monomial(degree), vals, ctx, grid=grid, kernels=kernels)
            assert not report.verdict and report.z_score > 0, f"degree {degree}: z = {report.z_score:.2f}"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_check_fails_with_the_cross_kernel_untransposed(self, seed):
        # power against the skew: A o A in place of A o A^T puts the oracle
        # of h(x) = x, h'^2 sum(A o A), above E[S^2], since
        # sum A_ij^2 >= sum A_ij A_ji; the gap lies on the short side of the
        # right-skewed S^2, where a normal-theory correction loses it
        ctx = PhiContext(HurstParameter(0.7))
        grid = TimeGrid.uniform(128, 1.0)
        vals = ensemble_values("circulant", grid, ctx.hurst, seed, 4000)
        r = covariance_grid(grid.points, ctx.hurst)
        a = r[:-1, 1:] - r[:-1, :-1]
        kernels = isometry_kernels(grid, ctx)._replace(cross=a * a, cross_sum=(a * a).sum())
        report = _isometry_report(CylinderFunction.monomial(1), vals, ctx, grid=grid, kernels=kernels)
        assert not report.verdict and report.z_score < 0, f"z = {report.z_score:.2f}"

    def test_step_breakpoints_must_lie_on_path_grid(self):
        grid = TimeGrid.uniform(64, 1.0)
        f = StepFunction(TimeGrid(np.array([0.0, 0.3, 1.0])), np.array([1.0, -2.0]))
        with pytest.raises(GridMismatchError, match="breakpoints"):
            isometry_check(f, np.zeros((1, 65)), CTX, grid=grid)

    @pytest.mark.parametrize("h", [0.6, 0.75])
    def test_constant_cylinder_matches_variance(self, h):
        ctx = PhiContext(HurstParameter(h))
        grid = TimeGrid.uniform(64, 1.0)
        vals = ensemble_values("circulant", grid, ctx.hurst, 22, 4000)
        report = _isometry_report(CylinderFunction.constant(1.0), vals, ctx, grid=grid)
        assert report.verdict, f"H={h}: z = {report.z_score:.2f}"

    @pytest.mark.parametrize("h", [0.6, 0.75])
    def test_linear_cylinder_closed_form(self, h):
        # lhs = (integral of W dW)^2 has mean T^{4H}/2 = 0.5 at T = 1, for
        # every H; the paired rhs carries the frozen-norm and cross pieces
        # whose means are the Beta-form closed values.
        ctx = PhiContext(HurstParameter(h))
        grid = TimeGrid.uniform(128, 1.0)
        vals = ensemble_values("circulant", grid, ctx.hurst, 23, 4000)
        report = _isometry_report(CylinderFunction.monomial(1), vals, ctx, grid=grid)
        assert report.verdict, f"H={h}: paired z = {report.z_score:.2f}"

        lhs = _wick_integral(CylinderFunction.monomial(1), vals, grid, ctx) ** 2
        z = (fmean(lhs) - 0.5) / sample_stderr(lhs)
        assert abs(z) < 4.0, f"H={h}: analytic second moment z = {z:.2f}"

    def test_cross_term_closed_forms_back_the_rhs(self):
        # The rhs decomposes as ||frozen||^2_phi + cross; their expectations
        # are the phi-weighted covariance integral and the cross-kernel
        # integral. Check the total against the sum of the two Beta forms.
        h = 0.75
        ctx = PhiContext(HurstParameter(h))
        want = oracles.phi_weighted_covariance_integral(
            1.0, h
        ) + oracles.cross_kernel_integral(1.0, h)
        assert want == pytest.approx(0.5, rel=1e-12), "closed forms must total 0.5"
        grid = TimeGrid.uniform(128, 1.0)
        vals = ensemble_values("circulant", grid, ctx.hurst, 24, 4000)
        lhs = _wick_integral(CylinderFunction.monomial(1), vals, grid, ctx) ** 2
        z = (fmean(lhs) - want) / sample_stderr(lhs)
        assert abs(z) < 4.0, f"second moment vs Beta closed forms: z = {z:.2f}"

    @pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_oracle_is_exact_discrete_second_moment(self, n, h):
        # The 2n rows +-sqrt(n) * (column k of the Cholesky factor of R) have
        # empirical second moments equal to R, so the mean of the per-path
        # right side must be the exact E[S^2] of the discrete Wick integral.
        ctx = PhiContext(HurstParameter(h))
        grid = TimeGrid.uniform(n, 1.0)
        chol = np.linalg.cholesky(covariance_grid(grid.points[1:], ctx.hurst))
        cols = math.sqrt(n) * chol.T
        vals = np.zeros((2 * n, n + 1))
        vals[:n, 1:] = cols
        vals[n:, 1:] = -cols
        report = _isometry_report(CylinderFunction.monomial(1), vals, ctx, grid=grid)
        want = oracles.wick_square_isserlis(grid.points, h)
        if n == 1:
            # a single cell has W_0 = 0: both sides vanish identically
            assert want == 0.0 and report.oracle == 0.0
        else:
            assert report.oracle == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_coarse_grid_has_no_oracle_bias(self, degree):
        # At 8 cells a quadrature of the cross term is biased by many
        # standard errors at this many paths; the exact form is not.
        ctx = PhiContext(HurstParameter(0.7))
        grid = TimeGrid.uniform(8, 1.0)
        vals = ensemble_values("circulant", grid, ctx.hurst, 7, 20_000)
        report = _isometry_report(CylinderFunction.monomial(degree), vals, ctx, grid=grid)
        assert report.verdict, f"degree {degree}: z = {report.z_score:.2f}"

    def test_quadratic_cylinder(self):
        grid = TimeGrid.uniform(64, 1.0)
        vals = ensemble_values("circulant", grid, CTX.hurst, 25, 4000)
        report = _isometry_report(CylinderFunction.monomial(2), vals, CTX, grid=grid)
        assert report.verdict, f"quadratic integrand z = {report.z_score:.2f}"

    def test_report_shape(self):
        grid = TimeGrid.uniform(16, 1.0)
        vals = ensemble_values("circulant", grid, CTX.hurst, 26, 500)
        sides = isometry_check(CylinderFunction.constant(1.0), vals, CTX, grid=grid, name="probe")
        assert sides.shape == (2, 500)


@pytest.mark.parametrize(
    "fn, degree",
    [
        (CylinderFunction.constant(2.0), 0),
        (CylinderFunction.monomial(1), 1),
        (CylinderFunction.monomial(4), 4),
        (CylinderFunction.polynomial([1.5, 0.0]), 1),
        (CylinderFunction.polynomial([0.0, 1.0, 0.0]), 2),
        (CylinderFunction.exponential(0.5), None),
        (CylinderFunction.sine(2.0), None),
    ],
)
def test_cylinder_degree_is_the_recorded_one(fn, degree):
    # the coefficient count decides, so trailing zeros count: a recorded
    # degree above the true one only makes the isometry take a dense form
    assert fn.degree == degree


class TestBlockedIsometry:
    """The row-blocked isometry, with shared kernels and constant forms
    skipped, against the whole-matrix formula with both forms dense."""

    # 512 nodes make the isometry's blocks the 128-row minimum, so the path
    # counts below end inside the first block, at its end and past it
    GRID_N = 511
    INTEGRANDS = {
        "const": CylinderFunction.constant(1.3),
        **{f"x{k}": CylinderFunction.monomial(k) for k in range(1, 5)},
        "poly(c,0)": CylinderFunction.polynomial([1.5, 0.0]),
        "affine": CylinderFunction.polynomial([0.5, -2.0]),
        "exp": CylinderFunction.exponential(0.5),
        "sin": CylinderFunction.sine(2.0),
    }

    @pytest.fixture(scope="class", params=[0.55, 0.7, 0.9])
    def noise(self, request):
        ctx = PhiContext(HurstParameter(request.param))
        grid = TimeGrid.uniform(self.GRID_N, 1.0)
        w = ensemble_values("circulant", grid, ctx.hurst, 31, 300)
        return ctx, grid, w, isometry_kernels(grid, ctx)

    @pytest.mark.parametrize("n_paths", [2, 127, 128, 129, 300])
    @pytest.mark.parametrize("name", list(INTEGRANDS))
    def test_matches_whole_matrix_formula(self, noise, name, n_paths):
        ctx, grid, w, kernels = noise
        fn, paths = self.INTEGRANDS[name], w[:n_paths]
        sides = isometry_check(fn, paths, ctx, grid=grid, kernels=kernels)
        raw, corr = cylinder_integral_terms(fn, paths, grid, ctx)
        assert np.array_equal(sides[0], (raw - corr) ** 2)
        want = fmean(oracles.isometry_rhs_dense(fn, paths, grid.points, ctx.h))
        assert fmean(sides[1]) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert np.array_equal(isometry_check(fn, paths, ctx, grid=grid), sides)


class TestPerPathMemory:
    """Per-path Wick integrals allocate row blocks, never a matrix the size
    of the paths: at 512 cells x 2000 paths each call stays under a quarter
    of the paths' bytes, which one full-size temporary already exceeds."""

    @pytest.fixture(scope="class")
    def noise(self):
        ctx = PhiContext(HurstParameter(0.7))
        grid = TimeGrid.uniform(512, 1.0)
        w = ensemble_values("circulant", grid, ctx.hurst, 41, 2000)
        return ctx, grid, w

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_isometry_with_shared_kernels(self, noise):
        ctx, grid, w = noise
        kernels = isometry_kernels(grid, ctx)
        fn = CylinderFunction.monomial(2)
        peak = self._peak(lambda: isometry_check(fn, w, ctx, grid=grid, kernels=kernels))
        assert peak < w.nbytes / 4, f"isometry_check allocated {peak / 2**20:.2f} MiB"

    def test_exponential_functional(self, noise):
        ctx, grid, w = noise
        f = StepFunction.constant(1.0, 1.0)
        peak = self._peak(lambda: exponential_functional(f, w, ctx, grid))
        assert peak < w.nbytes / 4, f"exponential_functional allocated {peak / 2**20:.2f} MiB"
