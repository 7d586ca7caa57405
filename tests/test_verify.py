"""Residual kernels, row-blocked residual arithmetic, ladders, guards and
the configuration errors the CLI turns into exit status 2."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
import yaml

import oracles
from fracwick import (
    HurstParameter,
    PhiContext,
    StepFunction,
    TimeGrid,
    ensemble_values,
    exponential_mean_report,
    girsanov_check,
    ito_case_registry,
    ito_residuals,
    product_rule_case_registry,
    product_rule_residuals,
    rect_weight_matrix,
    wentzell_case_registry,
    wentzell_residuals,
)
from fracwick import cli, fbm, verify
from fracwick.functions import CylinderFunction, SpaceTimeFunction
from fracwick.mc import fsum
from fracwick.wick import MAX_NORM_SQ, left_corrections

HURSTS = (0.55, 0.7, 0.9)


def _grids():
    rng = np.random.default_rng(11)
    steps = rng.uniform(0.2, 1.8, 48)
    irregular = np.concatenate([[0.0], np.cumsum(steps) / steps.sum()])
    return {"uniform": TimeGrid.uniform(48, 1.0), "irregular": TimeGrid(irregular)}


def _levels(n):
    one_jump = np.where(np.arange(n) < n // 3, 1.0, -0.4)
    two_jumps = np.select([np.arange(n) < n // 4, np.arange(n) < 3 * n // 4], [1.3, 0.0], -0.7)
    return {"constant": np.full(n, 0.8), "one-jump": one_jump, "two-jumps-zero": two_jumps}


class TestLowerKernel:
    @pytest.mark.parametrize("h", HURSTS)
    @pytest.mark.parametrize("grid_name", ["uniform", "irregular"])
    @pytest.mark.parametrize("levels_name", ["constant", "one-jump", "two-jumps-zero"])
    def test_matches_dense_rectangle_sum(self, h, grid_name, levels_name):
        ctx = PhiContext(HurstParameter(h))
        t = _grids()[grid_name].points
        b = _levels(t.size - 1)[levels_name]
        dense = np.tril(rect_weight_matrix(t, ctx), -1) @ b
        closed = verify._lower_kernel(b, t, ctx)
        assert closed[0] == 0.0
        np.testing.assert_allclose(closed, dense, rtol=0.0, atol=1e-15)

    def test_constant_level_is_the_left_correction(self):
        # for b = 1 the lower kernel integrates phi over cell i x [0, t_i]
        ctx = PhiContext(HurstParameter(0.7))
        grid = _grids()["irregular"]
        g = verify._lower_kernel(np.ones(grid.n_intervals), grid.points, ctx)
        np.testing.assert_allclose(g, left_corrections(grid, ctx), rtol=0.0, atol=1e-16)


def _split_irregular_grid():
    """Irregular cells on each half of [0, 1], so that 1/2, the breakpoint
    of the halves coefficients, is a node."""
    rng = np.random.default_rng(5)
    left, right = (np.cumsum(rng.uniform(0.2, 1.8, 24)) for _ in range(2))
    return TimeGrid(np.concatenate([[0.0], 0.5 * left / left[-1], 0.5 + 0.5 * right / right[-1]]))


def _step_wentzell_case():
    """The quad field driven by a step drift and the halves step diffusion."""
    drift = StepFunction(TimeGrid(np.array([0.0, 0.5, 1.0])), np.array([0.2, -0.4]))
    drive = verify.DriveSpec(x0=0.1, drift=drift, diffusion=verify.halves(1.0), label="steps")
    return verify.WentzellCase.from_polys(
        [0.0, 0.0, 1.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.0], drive, label="quad-steps"
    )


_REFERENCES = {
    "ito": oracles.ito_residuals_reference,
    "product-rule": oracles.product_rule_residuals_reference,
    "wentzell": oracles.wentzell_residuals_reference,
}


def _cases(family):
    """The family's registry cases, plus the quad field under a step drift
    and a step diffusion for the composition."""
    cases = dict(verify.case_registry(family))
    if family == "wentzell":
        cases["quad-steps"] = _step_wentzell_case()
    return cases


def _case_args(family, case):
    return case if family == "product-rule" else (case,)


class TestSurvivingTerms:
    """Every Wick correction cancels the lower kernel of its trace term, so
    each residual keeps only Riemann sums and a half-cell compensator; the
    reference with all terms written out agrees per path."""

    @pytest.mark.parametrize("h", HURSTS)
    @pytest.mark.parametrize("grid_name", ["uniform", "irregular"])
    @pytest.mark.parametrize("family", verify.RESIDUAL_NAMES)
    def test_matches_term_by_term_reference(self, family, grid_name, h):
        ctx = PhiContext(HurstParameter(h))
        grid = TimeGrid.uniform(64, 1.0) if grid_name == "uniform" else _split_irregular_grid()
        w = ensemble_values("cholesky", grid, ctx.hurst, 7, 64)
        for name, case in _cases(family).items():
            got, _ = verify.residuals(family, case, w, ctx, grid)
            want = _REFERENCES[family](*_case_args(family, case), w, ctx, grid)
            gap = np.abs(got - want).max()
            assert gap <= 1e-13 * max(1.0, np.abs(want).max()), f"{family}:{name} off by {gap:.3e}"


def _recorded_coefficient_cases(family):
    """Cases whose recorded coefficients differ from the ones they were
    built with: padded, zero and constant polynomials."""
    poly = CylinderFunction.polynomial
    affine = verify.DriveSpec(x0=0.1, drift=0.2, diffusion=0.8, label="affine")
    if family == "ito":
        padded_tx2 = SpaceTimeFunction.polynomial([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
        return {
            "padded-x1": verify.ItoCase(SpaceTimeFunction.from_cylinder(poly([0, 1, 0, 0]))),
            "zero": verify.ItoCase(SpaceTimeFunction.from_cylinder(poly([0.0]))),
            "padded-tx2-step": verify.ItoCase(padded_tx2, a=verify.halves(1.0)),
        }
    if family == "wentzell":
        zero = poly([0.0])
        return {
            "padded-f0": verify.WentzellCase(poly([0, 1, 0, 0]), zero, zero, affine),
            "zero": verify.WentzellCase(zero, zero, zero, affine),
            "constant-h": verify.WentzellCase(poly([0, 0, 1]), zero, CylinderFunction.constant(1.5), affine),
        }
    return {}


_POLYVAL = {
    "ito": oracles.ito_residuals_polyval,
    "product-rule": oracles.product_rule_residuals_polyval,
    "wentzell": oracles.wentzell_residuals_polyval,
}


class TestDegreeAwareArithmetic:
    """The residuals build only the factors that are not identically zero,
    from the recorded coefficients; the generic polyval arithmetic builds
    every factor over whole path matrices. They agree bit for bit wherever
    no operation is reordered."""

    # A number factor other than a power of two scales one row sum where
    # the generic arithmetic sums the scaled row (w-const: 2.5, constant-h:
    # 1.5), or the end value F_T(X_T) combines f0, g and h before Horner's
    # rule where the generic arithmetic adds the three (quad, quad-steps,
    # constant-h).
    REORDERED = {
        ("product-rule", "w-const"),
        ("wentzell", "quad"),
        ("wentzell", "quad-steps"),
        ("wentzell", "constant-h"),
    }

    @pytest.mark.parametrize("h", HURSTS)
    @pytest.mark.parametrize("grid_name", ["uniform", "irregular"])
    @pytest.mark.parametrize("family", verify.RESIDUAL_NAMES)
    def test_matches_polyval_arithmetic(self, family, grid_name, h):
        ctx = PhiContext(HurstParameter(h))
        grid = TimeGrid.uniform(64, 1.0) if grid_name == "uniform" else _split_irregular_grid()
        w = ensemble_values("cholesky", grid, ctx.hurst, 7, 64)
        cases = {**_cases(family), **_recorded_coefficient_cases(family)}
        for name, case in cases.items():
            got, _ = verify.residuals(family, case, w, ctx, grid)
            want = _POLYVAL[family](*_case_args(family, case), w, ctx, grid)
            assert got.shape == want.shape
            if (family, name) in self.REORDERED:
                gap = np.abs(got - want).max()
                assert gap <= 1e-13 * max(1.0, np.abs(want).max()), f"{family}:{name} off by {gap:.3e}"
            else:
                assert np.array_equal(got, want), f"{family}:{name} is not bit for bit"

    @pytest.mark.parametrize(
        "family, name, zeros",
        [
            ("wentzell", "xw", ("f0", "g")),
            ("wentzell", "deterministic", ("g", "h")),
            ("wentzell", "constant", ("g", "h")),
            ("ito", "x1", ()),
        ],
    )
    def test_zero_polynomial_is_never_evaluated(self, family, name, zeros):
        def boom(*args):
            raise AssertionError("a zero polynomial was evaluated")

        ctx = PhiContext(HurstParameter(0.7))
        grid = TimeGrid.uniform(32, 1.0)
        w = ensemble_values("circulant", grid, ctx.hurst, 3, 16)
        plain = verify.case_registry(family)[name]
        if family == "ito":
            # x1's second derivative is the zero polynomial
            x1 = dataclasses.replace(CylinderFunction.monomial(1), deriv2=boom)
            spied = dataclasses.replace(plain, f=SpaceTimeFunction.from_cylinder(x1))
        else:
            zero = dataclasses.replace(CylinderFunction.polynomial([0.0]), value=boom, deriv=boom, deriv2=boom)
            spied = dataclasses.replace(plain, **{z: zero for z in zeros})
        got = verify.residuals(family, spied, w, ctx, grid)
        assert np.array_equal(got, verify.residuals(family, plain, w, ctx, grid))


class TestRecordedCoefficients:
    @pytest.mark.parametrize(
        "fn, coeffs",
        [
            (CylinderFunction.polynomial([0, 1, 0, 0]), (0.0, 1.0)),
            (CylinderFunction.polynomial([0.0]), ()),
            (CylinderFunction.polynomial([0.0, 0.0]), ()),
            (CylinderFunction.constant(1.5), (1.5,)),
            (CylinderFunction.monomial(3), (0.0, 0.0, 0.0, 1.0)),
            (CylinderFunction.exponential(0.5), None),
            (CylinderFunction.sine(2.0), None),
        ],
    )
    def test_cylinder_records_trimmed_coefficients(self, fn, coeffs):
        assert fn.coeffs == coeffs

    def test_field_records_time_major_trimmed_coefficients(self):
        field = SpaceTimeFunction.polynomial([[1, 0, 0], [0, 0, 2], [0, 0, 0]])
        assert field.coeffs == ((1.0,), (0.0, 0.0, 2.0))
        assert field.time_dependent
        flat = SpaceTimeFunction.polynomial([[0, 3, 0], [0, 0, 0]])
        assert flat.coeffs == ((0.0, 3.0),) and not flat.time_dependent
        assert SpaceTimeFunction.from_cylinder(CylinderFunction.monomial(2)).coeffs == ((0.0, 0.0, 1.0),)
        assert SpaceTimeFunction.from_cylinder(CylinderFunction.polynomial([0.0])).coeffs == ()
        assert SpaceTimeFunction.from_cylinder(CylinderFunction.sine(1.0)).coeffs is None

    @pytest.mark.parametrize(
        "coeff",
        [
            [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            [[0.3, -1.0, 0.2], [0.1, 0.5, 1.0], [0.0, 0.0, 0.7]],
            [[0.5, 0.0, 0.0, 0.0, 0.25]],
        ],
    )
    def test_field_partials_are_polyval2d_on_the_broadcast(self, coeff):
        # Horner's rule in x on the time polynomials evaluated once per
        # time performs polyval2d's operations without the broadcast
        pv2, pder = np.polynomial.polynomial.polyval2d, np.polynomial.polynomial.polyder
        c = np.array(coeff)
        field = SpaceTimeFunction.polynomial(c)
        s = np.linspace(0.0, 1.0, 17)
        x = np.random.default_rng(2).standard_normal((5, 17))
        ss, xx = np.broadcast_arrays(s, x)
        for fn, cc in ((field.value, c), (field.dx, pder(c, 1, axis=1)), (field.dxx, pder(c, 2, axis=1))):
            assert np.array_equal(fn(s, x), pv2(ss, xx, cc))
            assert np.array_equal(fn(0.7, x[:, 3]), pv2(np.full(5, 0.7), x[:, 3], cc))


def _all_residuals(w, ctx, grid):
    out = []
    for case in ito_case_registry().values():
        out.append(ito_residuals(case, w, ctx, grid=grid))
    for x_case, y_case in product_rule_case_registry().values():
        out.append(product_rule_residuals(x_case, y_case, w, ctx, grid=grid))
    for case in wentzell_case_registry().values():
        out.append(wentzell_residuals(case, w, ctx, grid=grid))
    return out


class TestRowBlocks:
    GRID_N = 512
    BLOCK = fbm._BLOCK_CELLS // GRID_N

    @pytest.fixture(scope="class")
    def noise(self):
        ctx = PhiContext(HurstParameter(0.7))
        grid = TimeGrid.uniform(self.GRID_N, 1.0)
        w = ensemble_values("circulant", grid, ctx.hurst, 17, 3 * self.BLOCK + 7)
        return ctx, grid, w

    @pytest.mark.parametrize("n_paths", [1, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 7])
    def test_blocked_equals_single_block_bitwise(self, noise, n_paths, monkeypatch):
        ctx, grid, w = noise
        assert self.BLOCK > 1
        blocked = _all_residuals(w[:n_paths], ctx, grid)
        monkeypatch.setattr(fbm, "_BLOCK_CELLS", 2**62)
        whole = _all_residuals(w[:n_paths], ctx, grid)
        for got, want in zip(blocked, whole):
            assert got.shape == (2, n_paths)
            assert got.tobytes() == want.tobytes()

    def test_strided_restriction_equals_single_block_bitwise(self, noise, monkeypatch):
        # ladders pass every other column of the fine paths, not a copy
        ctx, grid, w = noise
        sub_grid = TimeGrid(grid.points[::2])
        blocked = _all_residuals(w[:, ::2], ctx, sub_grid)
        monkeypatch.setattr(fbm, "_BLOCK_CELLS", 2**62)
        whole = _all_residuals(w[:, ::2], ctx, sub_grid)
        for got, want in zip(blocked, whole):
            assert got.tobytes() == want.tobytes()

    def test_x2_residual_is_quadratic_variation_defect(self, noise):
        # f = x^2: the Wick and curvature kernels cancel, leaving
        # sum dW^2 - sum dt^2H per path whatever the lower kernel is
        ctx, grid, w = noise
        res, _ = ito_residuals(ito_case_registry()["x2"], w, ctx, grid=grid)
        oracle = (np.diff(w, axis=1) ** 2).sum(axis=1) - (grid.spacings ** (2.0 * ctx.h)).sum()
        np.testing.assert_allclose(res, oracle, rtol=0.0, atol=1e-13)

    def test_no_dense_matrix_allocated(self):
        ctx = PhiContext(HurstParameter(0.7))
        n = 2048
        grid = TimeGrid.uniform(n, 1.0)
        w = ensemble_values("circulant", grid, ctx.hurst, 5, 64)
        case = wentzell_case_registry()["quad"]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            wentzell_residuals(case, w, ctx, grid=grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, f"residual call allocated {peak / 2**20:.1f} MiB"


_FAMILY_FUNCTIONS = {
    "ito": "ito_residuals",
    "product-rule": "product_rule_residuals",
    "wentzell": "wentzell_residuals",
}


def _case_label(case):
    """ItoCase and WentzellCase carry a label; a product-rule case is an
    (X, Y) pair of labelled drives."""
    return tuple(c.label for c in case) if isinstance(case, tuple) else case.label


class TestResidualDispatch:
    """Suites and ladders reach each residual function through its verify
    module attribute, so a wrapper installed there sees every case."""

    @pytest.fixture
    def seen(self, monkeypatch):
        calls = []
        for attr in _FAMILY_FUNCTIONS.values():

            def spy(*args, _attr=attr, _original=getattr(verify, attr), **kwargs):
                case = args[:2] if _attr == "product_rule_residuals" else args[0]
                calls.append((_attr, _case_label(case)))
                return _original(*args, **kwargs)

            monkeypatch.setattr(verify, attr, spy)
        return calls

    @pytest.mark.parametrize(
        "suite, family, names",
        [
            ("verify-ito", "ito", verify.ITO_MEAN_ZERO_CASES),
            ("verify-product-rule", "product-rule", None),
            ("verify-wentzell", "wentzell", None),
        ],
    )
    def test_suite_reaches_every_case_once(self, tmp_path, seen, suite, family, names):
        # 16 paths of 17 nodes are one row block
        assert _run_cli(tmp_path, suite, {"grid_n": 16, "n_paths": 16}) == 0
        registry = verify.case_registry(family)
        want = [(_FAMILY_FUNCTIONS[family], _case_label(registry[n])) for n in names or registry]
        assert sorted(seen) == sorted(want)

    @pytest.mark.parametrize("family, case", [("ito", "x2"), ("product-rule", "affine"), ("wentzell", "quad")])
    def test_converge_reaches_the_case_once_per_rung(self, tmp_path, seen, family, case):
        cfg = {"residual": family, "case": case, "grid_sizes": [8, 16, 32], "n_paths": 16}
        assert _run_cli(tmp_path, "converge", cfg) == 0
        label = _case_label(verify.case_registry(family)[case])
        assert seen == [(_FAMILY_FUNCTIONS[family], label)] * 3


def _drift_shift_loop(g, t, ctx):
    """The scalar covariance loop that drift_shift_at replaced."""
    pts = g.grid.points
    terms = [
        lv * (oracles.covariance(t, pts[j + 1], ctx.h) - oracles.covariance(t, pts[j], ctx.h))
        for j, lv in enumerate(g.levels)
    ]
    return fsum(np.array(terms))


class TestDriftShift:
    @pytest.mark.parametrize("h", HURSTS)
    @pytest.mark.parametrize("case", ["w", "w2", "expw", "zero"])
    def test_registry_shift_equals_scalar_loop_bitwise(self, h, case):
        # same operands in the same order: the girsanov report keeps its bits
        ctx = PhiContext(HurstParameter(h))
        _, g = verify.girsanov_case_registry(1.0)[case]
        assert verify.drift_shift_at(g, 1.0, ctx) == _drift_shift_loop(g, 1.0, ctx)

    @pytest.mark.parametrize("h", HURSTS)
    @pytest.mark.parametrize("t", [1.0, 0.4, 0.25])
    def test_matches_scalar_loop_to_rounding(self, h, t):
        # numpy's vectorized power may differ from the scalar one by an ulp
        ctx = PhiContext(HurstParameter(h))
        g = StepFunction(TimeGrid(np.array([0.0, 0.25, 0.6, 1.0])), np.array([1.5, -0.3, 0.8]))
        tol = 16 * np.finfo(float).eps * np.abs(g.levels).sum()
        assert abs(verify.drift_shift_at(g, t, ctx) - _drift_shift_loop(g, t, ctx)) <= tol


class TestOverflowGuard:
    @pytest.mark.parametrize("which", ["girsanov", "exponential-mean"])
    def test_norm_beyond_guard_raises(self, which):
        ctx = PhiContext(HurstParameter(0.7))
        grid = TimeGrid.uniform(4, 1.0)
        w = np.zeros((2, 5))
        big = StepFunction.constant(30.0, 1.0)  # ||g||^2 = 900 R(1, 1) = 900
        assert 900.0 > MAX_NORM_SQ
        with pytest.raises(ValueError, match="overflow guard"):
            if which == "girsanov":
                girsanov_check(CylinderFunction.monomial(1), big, w, ctx, grid=grid)
            else:
                exponential_mean_report(big, w, ctx, grid=grid)


def _run_cli(tmp_path, suite, config):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    return cli.main([suite, "--config", str(cfg_path), "--out", str(tmp_path / "out")])


def _report(tmp_path):
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        return {row["test_name"]: row for row in csv.DictReader(fh)}


class TestConvergeVerdicts:
    def test_long_memory_beyond_three_quarters_saturates_at_minus_one(self, tmp_path):
        cfg = {"hurst": 0.9, "residual": "ito", "case": "x2", "n_paths": 200}
        assert _run_cli(tmp_path, "converge", cfg) == 0
        slope = _report(tmp_path)["converge:ito:x2:slope"]
        assert float(slope["oracle"]) == -1.0
        assert -1.15 < float(slope["estimate"]) < -0.85
        assert slope["verdict"] == "pass"

    def test_exact_ladder_passes(self, tmp_path):
        cfg = {"residual": "wentzell", "case": "constant", "n_paths": 50, "plots": True}
        assert _run_cli(tmp_path, "converge", cfg) == 0
        rows = _report(tmp_path)
        assert all(float(r["estimate"]) == 0.0 for n, r in rows.items() if ":n=" in n)
        assert rows["converge:wentzell:constant:slope"]["verdict"] == "pass"


class TestRoundingScale:
    """A residual whose per-path values are all equal (stderr 0) is exact
    when its mean is within 1e-12 of the terms that cancel in it."""

    @pytest.mark.parametrize("horizon", [1e5, 1e20])
    def test_deterministic_composition_passes_at_a_large_horizon(self, tmp_path, horizon):
        # at 1e5 the mean read 4.77e-7 against max(1, |mean|, 0) = 1, z = inf;
        # the drift sum and the end value that cancel in it are about 2.5e9
        cfg = {"hurst": 0.7, "horizon": horizon, "grid_n": 16, "n_paths": 8}
        assert _run_cli(tmp_path, "verify-wentzell", cfg) == 0
        row = _report(tmp_path)["wentzell:deterministic"]
        assert float(row["stderr"]) == 0.0 and float(row["estimate"]) != 0.0
        assert float(row["z"]) == 0.0 and row["verdict"] == "pass"

    @pytest.mark.parametrize("horizon", [1.0, 1e5, 1e20])
    def test_a_dropped_term_still_fails(self, tmp_path, monkeypatch, horizon):
        # the drift sum is the first right-hand term of the composition and
        # the only one the deterministic case does not zero
        balance = verify._balance

        def drop_first_term(wb, end, start, *terms):
            return balance(wb, end, start, *terms[1:])

        monkeypatch.setattr(verify, "_balance", drop_first_term)
        cfg = {"hurst": 0.7, "horizon": horizon, "grid_n": 16, "n_paths": 8, "cases": ["deterministic"]}
        assert _run_cli(tmp_path, "verify-wentzell", cfg) == 1
        row = _report(tmp_path)["wentzell:deterministic"]
        assert float(row["stderr"]) == 0.0 and row["verdict"] == "fail"

    def test_deterministic_ladder_is_exact_at_a_large_horizon(self, tmp_path):
        # every rung reads 4.77e-7 against terms of about 2.5e9; against an
        # absolute 1e-12 the slope was fitted to rounding and failed
        cfg = {"residual": "wentzell", "case": "deterministic", "horizon": 1e5, "n_paths": 8}
        assert _run_cli(tmp_path, "converge", cfg) == 0
        slope = _report(tmp_path)["converge:wentzell:deterministic:slope"]
        assert slope["estimate"] == "nan" and slope["verdict"] == "pass"

    def test_magnitude_is_the_sum_of_the_cancelling_terms(self):
        ctx = PhiContext(HurstParameter(0.7))
        grid = TimeGrid.uniform(16, 1e5)
        w = ensemble_values("circulant", grid, ctx.hurst, 0, 4)
        res, mag = wentzell_residuals(wentzell_case_registry(1e5)["deterministic"], w, ctx, grid=grid)
        # F(X) = 1 + X + X^2 / 2 along X = 0.3 + 0.7 t: |F(X_T)| + |F(x0)|
        # plus the drift sum, which equals their difference to rounding
        f_end, f_start = (1.0 + x + 0.5 * x * x for x in (0.3 + 0.7e5, 0.3))
        np.testing.assert_allclose(mag, 2.0 * f_end, rtol=1e-12)
        assert np.all(np.abs(res) <= 1e-12 * mag)


class TestConfigErrors:
    def test_single_path_is_a_config_error(self, tmp_path, capsys):
        assert _run_cli(tmp_path, "verify-ito", {"n_paths": 1, "grid_n": 16}) == 2
        assert "n_paths" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, config, key",
        [
            ("verify-ito", {"cases": ["x2-step"]}, "grid_n"),
            ("verify-product-rule", {}, "grid_n"),
            ("isometry", {}, "grid_n"),
            ("converge", {"case": "x2-step", "grid_sizes": [3, 9]}, "grid_sizes"),
        ],
    )
    def test_odd_grid_with_halves_case_is_a_config_error(self, tmp_path, capsys, suite, config, key):
        cfg = {"grid_n": 63, "n_paths": 20, **config}
        assert _run_cli(tmp_path, suite, cfg) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("grid_n, code", [(32, 2), (48, 2), (50, 2), (64, 0)])
    def test_picard_grid_too_coarse_for_lam_is_a_config_error(self, tmp_path, capsys, grid_n, code):
        # one cell contracts by dt * lam / 2; lam * horizon / grid_n >= 2 diverges
        cfg = {
            "solver": "picard",
            "sde": {"lam": 100.0},
            "grid_n": grid_n,
            "n_paths": 8,
            "checkpoints": [1.0],
        }
        assert _run_cli(tmp_path, "solve-sde", cfg) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "config error" in err and "grid_n >= 51" in err and "sde.lam" in err
