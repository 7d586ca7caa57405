"""Grids, sample paths, and piecewise-constant functions."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracwick import GridMismatchError, StepFunction, TimeGrid, write_ensemble_csv
from fracwick.wick import _step_levels_on_path


class TestTimeGrid:
    def test_uniform_basics(self):
        grid = TimeGrid.uniform(4, 2.0)
        assert grid.n_intervals == 4
        assert grid.horizon == 2.0
        assert grid.is_uniform()
        np.testing.assert_allclose(grid.spacings, 0.5)

    @pytest.mark.parametrize(
        "points",
        [
            [0.0],
            [0.5, 1.0],
            [0.0, 1.0, 1.0],
            [0.0, 2.0, 1.0],
            [0.0, np.inf],
        ],
    )
    def test_rejects_bad_points(self, points):
        with pytest.raises(ValueError):
            TimeGrid(np.array(points))

    def test_points_are_write_locked(self):
        grid = TimeGrid.uniform(2, 1.0)
        with pytest.raises(ValueError):
            grid.points[0] = 5.0

    def test_non_uniform_detected(self):
        grid = TimeGrid(np.array([0.0, 0.1, 1.0]))
        assert not grid.is_uniform()

    @pytest.mark.parametrize(
        "points", [[0.0, 0.4, 1.0], np.linspace(0.0, 1.0, 101) + np.eye(101)[50] * 1e-12]
    )
    def test_uneven_spacings_stay_refused(self, points):
        assert not TimeGrid(np.asarray(points)).is_uniform()

    @pytest.mark.parametrize("horizon", [1.0, 0.37, 1e5])
    def test_every_uniform_grid_up_to_20000_cells_is_uniform(self, horizon):
        # linspace rounds each point to its own ulp, so the spacings differ
        # by up to about one ulp of the horizon; at horizon 1 that exceeds a
        # relative 1e-12 of the spacing from 7112 cells on
        refused = [n for n in range(1, 20001) if not TimeGrid.uniform(n, horizon).is_uniform()]
        assert refused == []

    def test_restriction_indices_on_nested_uniform(self):
        fine = TimeGrid.uniform(8, 1.0)
        coarse = TimeGrid.uniform(4, 1.0)
        idx = fine.restriction_indices(coarse)
        np.testing.assert_array_equal(idx, [0, 2, 4, 6, 8])

    def test_restriction_rejects_non_subset(self):
        fine = TimeGrid.uniform(4, 1.0)
        other = TimeGrid(np.array([0.0, 0.3, 1.0]))
        with pytest.raises(GridMismatchError):
            fine.restriction_indices(other)

    def test_equality_and_hash(self):
        a = TimeGrid.uniform(4, 1.0)
        b = TimeGrid(np.linspace(0.0, 1.0, 5))
        c = TimeGrid.uniform(5, 1.0)
        assert a == b and hash(a) == hash(b)
        assert a != c

    @given(n=st.integers(1, 60), horizon=st.floats(0.1, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_uniform_grid_properties_hold(self, n, horizon):
        grid = TimeGrid.uniform(n, horizon)
        assert grid.n_intervals == n
        assert grid.points[0] == 0.0
        assert np.isclose(grid.horizon, horizon)
        assert grid.is_uniform()


def test_ensemble_csv_is_long_format_and_exact(tmp_path):
    grid = TimeGrid(np.array([0.0, 1.0 / 3.0, 1.0]))
    vals = np.array([[0.0, np.pi, -1.0 / 7.0], [0.0, 2.0**-40, 1e300]])
    out = tmp_path / "ensemble.csv"
    write_ensemble_csv(grid, vals, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replication", "t", "value"]
    assert [int(r[0]) for r in rows[1:]] == [0, 0, 0, 1, 1, 1]
    np.testing.assert_array_equal([float(r[1]) for r in rows[1:]], np.tile(grid.points, 2))
    np.testing.assert_array_equal([float(r[2]) for r in rows[1:]], vals.ravel())
    with pytest.raises(GridMismatchError):
        write_ensemble_csv(grid, vals[:, :2], str(out))


@pytest.mark.parametrize(
    "points",
    [np.linspace(0.0, 1.0, 9), np.array([0.0, 1e-300, 1.0 / 3.0, 0.5, 2.0, 1e10, 1e200, 3e300, 1e308])],
    ids=["uniform", "irregular"],
)
def test_ensemble_csv_bytes_match_per_cell_writer(tmp_path, points):
    grid = TimeGrid(points)
    vals = np.random.default_rng(3).standard_normal((5, points.size)) * 10.0 ** np.arange(-4, 5)
    vals[0, 1:] = [-0.0, 5e-324, -2.0**-1074, 1e-300, np.nan, np.inf, -np.inf, -1.5e-17]
    vals[1] = -vals[1]
    write_ensemble_csv(grid, vals, str(tmp_path / "fast.csv"))
    oracles.write_ensemble_csv_per_cell(points, vals, str(tmp_path / "oracle.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestStepFunction:
    def test_cells_are_left_closed_right_open(self):
        f = StepFunction(TimeGrid(np.array([0.0, 0.5, 1.0])), np.array([2.0, 3.0]))
        assert f(0.0) == 2.0
        assert f(0.5) == 3.0
        assert f(0.4999) == 2.0
        assert f(1.0) == 0.0, "outside [0, T) the function is 0"
        assert f(-0.1) == 0.0

    def test_indicator_forms(self):
        full = StepFunction.indicator(0.0, 1.0)
        assert full(0.3) == 1.0 and full(1.0) == 0.0
        mid = StepFunction.indicator(0.25, 0.75)
        assert mid(0.1) == 0.0 and mid(0.3) == 1.0 and mid(0.8) == 0.0

    def test_indicator_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            StepFunction.indicator(0.5, 0.5)

    def test_from_callable_samples_midpoints(self):
        grid = TimeGrid.uniform(4, 1.0)
        f = StepFunction.from_callable(lambda u: u, grid)
        np.testing.assert_allclose(f.levels, [0.125, 0.375, 0.625, 0.875])

    def test_level_count_checked(self):
        with pytest.raises(ValueError):
            StepFunction(TimeGrid.uniform(3, 1.0), np.array([1.0, 2.0]))

    def test_refinement_preserves_values(self):
        # the levels on a path grid that refines both step functions' grids
        f = StepFunction(TimeGrid(np.array([0.0, 0.4, 1.0])), np.array([1.0, -2.0]))
        g = StepFunction(TimeGrid(np.array([0.0, 0.7, 1.0])), np.array([0.5, 4.0]))
        path = TimeGrid(np.array([0.0, 0.4, 0.7, 1.0]))
        mids = 0.5 * (path.points[:-1] + path.points[1:])
        np.testing.assert_array_equal(_step_levels_on_path(f, path), f(mids))
        np.testing.assert_array_equal(_step_levels_on_path(g, path), g(mids))

    def test_refine_breakpoints_never_merges_distinct_floats(self):
        # a path grid keeps nearly equal breakpoints as a thin cell, and each
        # step function's levels land on the cells its own breakpoints bound
        eps = 1e-15
        path = TimeGrid(np.array([0.0, 0.5, 0.5 + eps, 1.0]))
        assert path.n_intervals == 3, f"expected distinct nearby points kept, got {path.points}"
        f = StepFunction(TimeGrid(np.array([0.0, 0.5, 1.0])), np.array([1.0, 0.0]))
        g = StepFunction(TimeGrid(np.array([0.0, 0.5 + eps, 1.0])), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(
            _step_levels_on_path(f, path), [1.0, 0.0, 0.0], err_msg="cells evaluate at their left endpoints"
        )
        np.testing.assert_array_equal(_step_levels_on_path(g, path), [1.0, 1.0, 0.0])
