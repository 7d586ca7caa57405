"""Config files as written by hand: YAML 1.2 numbers through the CLI."""

import json

import pytest

from fracwick import cli


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
