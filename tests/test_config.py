"""Config files as written by hand: YAML 1.2 numbers through the CLI."""

import csv
import json
import math

import pytest

from fracwick import cli, sde, suites, verify


def _run(tmp_path, suite, text):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text)
    return cli.main([suite, "--config", str(cfg_path), "--out", str(tmp_path / "out")])


def test_exponent_floats_are_numbers(tmp_path):
    # PyYAML's YAML 1.1 resolver would load both values as strings
    text = "tol: 1e-10\nhorizon: 2e0\ngrid_n: 16\nn_paths: 8\nsolver: picard\n"
    assert _run(tmp_path, "solve-sde", text) == 0
    with open(tmp_path / "out" / "resolved_config.json") as fh:
        resolved = json.load(fh)
    assert resolved["tol"] == 1e-10 and resolved["horizon"] == 2.0


@pytest.mark.parametrize("text", ['tol: "1e-10"\n', "tol: '1e-10'\n"])
def test_quoted_numbers_stay_strings(tmp_path, capsys, text):
    assert _run(tmp_path, "solve-sde", text) == 2
    assert "key 'tol' must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('grid_n: "64"\n', "key 'grid_n' must be an integer, got '64'"),
        ("grid_n: true\n", "key 'grid_n' must be an integer, got a boolean"),
        ("plots: 1\n", "key 'plots' must be a boolean, got 1"),
        ("generators: cholesky\n", "key 'generators' must be a list, got 'cholesky'"),
    ],
)
def test_wrong_type_exits_2(tmp_path, capsys, text, message):
    assert _run(tmp_path, "generate", text) == 2
    assert message in capsys.readouterr().err


def test_unknown_sde_key_exits_2(tmp_path, capsys):
    assert _run(tmp_path, "solve-sde", "sde:\n  lam: 1.0\n  lamda: 2.0\n") == 2
    assert "unknown key(s) under 'sde': ['lamda']" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["generate", "verify-ito", "isometry"])
def test_short_horizon_runs_without_checkpoints(tmp_path, suite):
    # checkpoints belong to solve-sde; their default (0.5, 1.0) must not
    # block a suite that never reads them
    assert _run(tmp_path, suite, "horizon: 0.5\ngrid_n: 16\nn_paths: 64\n") == 0


def test_solve_sde_checkpoints_must_lie_in_horizon(tmp_path, capsys):
    assert _run(tmp_path, "solve-sde", "horizon: 0.5\ngrid_n: 16\nn_paths: 8\n") == 2
    assert "checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["1000.0", "1.0e300"])
def test_girsanov_horizon_beyond_overflow_guard_exits_2(tmp_path, capsys, horizon):
    # the unit level's norm T^2H is 1.6e4 at T = 1000, past the guard, and
    # overflows a float at T = 1e300
    assert _run(tmp_path, "girsanov", f"horizon: {horizon}\ngrid_n: 16\nn_paths: 8\n") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "horizon" in err
    assert "Traceback" not in err


# isometry's h(x) = x^2 check squares S^2 ~ T^6H in its stderr, the largest
# power of the horizon any suite forms; the config bounds T^12H by 1e290
HORIZON_LIMIT_SUITES = ["generate", "verify-ito", "verify-product-rule", "verify-wentzell", "isometry", "converge"]


@pytest.mark.parametrize("hurst", [0.55, 0.7, 0.9])
@pytest.mark.parametrize("suite", HORIZON_LIMIT_SUITES)
def test_horizon_runs_at_its_limit_and_exits_2_above(tmp_path, capsys, suite, hurst):
    limit = 1e290 ** (1.0 / (12.0 * hurst))
    text = f"hurst: {hurst}\ngrid_n: 16\nn_paths: 8\nhorizon: "
    # Degenerate checks (stderr 0) may fail on a rounding-level gap at this
    # scale, so the run may exit 1; nothing may overflow or raise.
    assert _run(tmp_path, suite, text + f"{limit * (1.0 - 1e-12)!r}\n") in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            assert math.isfinite(float(row["estimate"])), row
            assert math.isfinite(float(row["stderr"])), row
    assert _run(tmp_path, suite, text + f"{limit * (1.0 + 1e-9)!r}\n") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "horizon" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("horizon", [".nan", ".inf", "1.0e300"])
def test_non_finite_or_huge_horizon_exits_2(tmp_path, capsys, horizon):
    assert _run(tmp_path, "generate", f"horizon: {horizon}\ngrid_n: 16\nn_paths: 8\n") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "horizon" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "grid_sizes, n_paths, keys",
    [
        ([16, 24], 8, ["grid_sizes"]),
        ([32], 8, ["grid_sizes"]),
        ([16, 16], 8, ["grid_sizes"]),
        ([16, 32], 10_000_000, ["grid_sizes", "n_paths"]),
    ],
)
def test_converge_ladder_the_study_cannot_run_exits_2(tmp_path, capsys, grid_sizes, n_paths, keys):
    # non-nested, single, repeated, and over the paths-times-cells budget
    assert _run(tmp_path, "converge", f"grid_sizes: {grid_sizes}\nn_paths: {n_paths}\n") == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(key in err for key in keys)
    assert "Traceback" not in err


@pytest.mark.parametrize("plots", [[], ["--plots"]])
def test_empty_checkpoints_exit_2(tmp_path, capsys, plots):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("checkpoints: []\ngrid_n: 16\nn_paths: 8\n")
    argv = ["solve-sde", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *plots]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "checkpoints" in err
    assert "Traceback" not in err


def _no_draws(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the ensemble was sampled before the cases were checked")

    # the shared-ensemble suites sample through suites, converge's ladder
    # through verify, solve-sde through sde
    monkeypatch.setattr(suites, "ensemble_values", no_draws)
    monkeypatch.setattr(verify, "ensemble_values", no_draws)
    monkeypatch.setattr(sde, "ensemble_values", no_draws)


@pytest.mark.parametrize("suite", ["verify-ito", "verify-wentzell", "girsanov", "converge"])
def test_unknown_case_exits_2_before_sampling(tmp_path, capsys, monkeypatch, suite):
    _no_draws(monkeypatch)
    key, value = ("case", "x9") if suite == "converge" else ("cases", "[x9]")
    assert _run(tmp_path, suite, f"grid_n: 16\nn_paths: 8\n{key}: {value}\n") == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{key}'" in err and "'x9'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["verify-ito", "verify-wentzell", "girsanov"])
def test_empty_cases_exit_2_before_sampling(tmp_path, capsys, monkeypatch, suite):
    # an empty list would otherwise fall back to the default cases
    _no_draws(monkeypatch)
    assert _run(tmp_path, suite, "grid_n: 16\nn_paths: 8\ncases: []\n") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'cases'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "suite, text, key",
    [
        ("verify-ito", "cases: [x1, x1]\n", "cases"),
        ("generate", "generators: [circulant, circulant]\n", "generators"),
        ("solve-sde", "checkpoints: [0.5, 0.5]\n", "checkpoints"),
    ],
)
def test_repeated_list_entry_exits_2_before_sampling(tmp_path, capsys, monkeypatch, suite, text, key):
    # a repeated case writes its report row twice, a repeated generator its
    # CSV twice, a repeated checkpoint its mean and variance rows twice
    _no_draws(monkeypatch)
    assert _run(tmp_path, suite, "grid_n: 16\nn_paths: 8\n" + text) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"key '{key}'" in err and "more than once" in err
    assert "Traceback" not in err
