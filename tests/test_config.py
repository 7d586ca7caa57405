"""Config files as written by hand: YAML 1.2 numbers through the CLI."""

import csv
import json
import math
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml

from fracwick import cli, config, sde, suites, verify
from fracwick.config import SUITE_NAMES, ExperimentConfig, SdeBlock, config_from_mapping
from fracwick.errors import ConfigError


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

    # generate samples through suites, the check suites and converge's
    # ladder through verify, solve-sde through sde
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


# Every (suite, key) pair the schema knows, built from the dataclass fields
# and the suite-key table, so that a key added later is covered here as is.
_SUITE_KEY_PAIRS = [
    (suite, f.name)
    for suite in SUITE_NAMES
    for f in fields(ExperimentConfig)
    if f.name in config._COMMON | set(config._SUITE_KEYS[suite])
]
_SDE_KEYS = [f.name for f in fields(SdeBlock)]
_SDE_SUITES = [suite for suite, key in _SUITE_KEY_PAIRS if key == "sde"]
_HINTS = typing.get_type_hints(ExperimentConfig)
_SDE_HINTS = typing.get_type_hints(SdeBlock)
# a value of the wrong kind for each annotation: a quoted number is a string
_WRONG = {float: "1.0", int: 1.5, str: 3, bool: 1}


def _wrong_value(tp):
    if is_dataclass(tp):
        return ["x"]
    if typing.get_origin(tp) is tuple:
        return "x"
    return _WRONG[tp]


def _typed_cases():
    """(suite, mapping, key as the message names it) for every wrongly typed
    value: each key, each list key's entries, and each field under sde."""
    cases = []
    for suite, key in _SUITE_KEY_PAIRS:
        tp = _HINTS[key]
        cases.append((suite, {key: _wrong_value(tp)}, key))
        if typing.get_origin(tp) is tuple:
            cases.append((suite, {key: [_wrong_value(typing.get_args(tp)[0])]}, f"{key}[0]"))
    for suite in _SDE_SUITES:
        for key in _SDE_KEYS:
            cases.append((suite, {"sde": {key: _wrong_value(_SDE_HINTS[key])}}, f"sde.{key}"))
    return cases


@pytest.mark.parametrize("suite, mapping, key", _typed_cases())
def test_every_key_of_the_schema_refuses_a_wrong_type(tmp_path, capsys, monkeypatch, suite, mapping, key):
    _no_draws(monkeypatch)
    assert _run(tmp_path, suite, yaml.safe_dump(mapping)) == 2
    err = capsys.readouterr().err
    assert f"key '{key}' must be" in err
    assert "Traceback" not in err


def _float_keys():
    cases = [(s, k) for s, k in _SUITE_KEY_PAIRS if _HINTS[k] is float]
    return cases + [(s, f"sde.{k}") for s in _SDE_SUITES for k in _SDE_KEYS if _SDE_HINTS[k] is float]


@pytest.mark.parametrize("suite, key", _float_keys())
def test_every_number_key_refuses_an_integer_beyond_the_float_range(tmp_path, capsys, suite, key):
    # float(10**400) overflows; the gate names the key instead
    outer, _, inner = key.rpartition(".")
    text = f"{outer}:\n  {inner}: 1{'0' * 400}\n" if outer else f"{key}: 1{'0' * 400}\n"
    assert _run(tmp_path, suite, text) == 2
    err = capsys.readouterr().err
    assert f"key '{key}' must be a number" in err
    assert "Traceback" not in err


def _misspelt_cases():
    cases = [(suite, {key + "x": 1}, f"for suite '{suite}': ['{key}x']") for suite, key in _SUITE_KEY_PAIRS]
    for suite in _SDE_SUITES:
        cases += [(suite, {"sde": {key + "x": 1}}, f"under 'sde': ['{key}x']") for key in _SDE_KEYS]
    # a key of another suite is as foreign as a typo
    cases += [
        (suite, {f.name: 1}, f"for suite '{suite}': ['{f.name}']")
        for suite in SUITE_NAMES
        for f in fields(ExperimentConfig)
        if (suite, f.name) not in _SUITE_KEY_PAIRS
    ]
    return cases


@pytest.mark.parametrize("suite, mapping, message", _misspelt_cases())
def test_every_misspelt_or_foreign_key_exits_2_naming_it(tmp_path, capsys, monkeypatch, suite, mapping, message):
    _no_draws(monkeypatch)
    assert _run(tmp_path, suite, yaml.safe_dump(mapping)) == 2
    err = capsys.readouterr().err
    assert f"unknown key(s) {message}" in err
    assert "Traceback" not in err


def test_unknown_keys_of_mixed_types_are_named():
    # YAML allows integer keys; sorting them among strings must not raise
    with pytest.raises(ConfigError, match=r"\[1, 'grdi_n'\]"):
        config_from_mapping("generate", {1: 2, "grdi_n": 3})


@pytest.mark.parametrize("name", ["missing.yaml", "."])
def test_unreadable_config_file_exits_2(tmp_path, capsys, name):
    argv = ["generate", "--config", str(tmp_path / name), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "could not read config file" in err
    assert "Traceback" not in err


def test_off_grid_checkpoint_is_refused_by_the_gate():
    with pytest.raises(ConfigError, match="checkpoints"):
        config_from_mapping("solve-sde", {"grid_n": 4, "checkpoints": [0.3]})


def test_off_grid_checkpoint_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    _no_draws(monkeypatch)
    assert _run(tmp_path, "solve-sde", "grid_n: 4\nn_paths: 8\ncheckpoints: [0.3]\n") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "checkpoints" in err and "not a grid point" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "converge"])
def test_more_path_cells_than_the_budget_exit_2_naming_both_keys(tmp_path, capsys, monkeypatch, suite):
    _no_draws(monkeypatch)
    assert _run(tmp_path, suite, "grid_n: 18446744073709551616\n") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grid_n" in err and "n_paths" in err
    assert "Traceback" not in err


def test_path_cell_budget_is_inclusive():
    half = verify.MAX_LADDER_BUDGET // 2
    config_from_mapping("generate", {"n_paths": 2, "grid_n": half - 1})
    with pytest.raises(ConfigError, match="grid_n"):
        config_from_mapping("generate", {"n_paths": 2, "grid_n": half})


def test_benchmark_configs_fit_the_path_cell_budget():
    # the largest, generate at 1024 x 20000, is 2.05e7 cells
    workloads = sorted((Path(__file__).parents[1] / "perfbench" / "workloads").glob("*.yaml"))
    assert workloads
    for path in workloads:
        suite = yaml.safe_load(path.read_text())["suite"]
        cfg = config.load_config(str(path), suite)
        assert cfg.n_paths * (cfg.grid_n + 1) <= verify.MAX_LADDER_BUDGET
