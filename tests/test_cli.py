"""Command-line argument and environment handling: bad input exits 2."""

import pytest

from fracwick import cli


def test_negative_seed_exits_2(tmp_path, capsys):
    assert cli.main(["generate", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "--seed must satisfy" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["two", "1.5"])
def test_non_integer_thread_count_exits_2(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("FRACWICK_THREADS", raw)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("grid_n: 16\nn_paths: 8\n")
    # isometry runs five checks, so it asks for a worker pool
    assert cli.main(["isometry", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "FRACWICK_THREADS must be an integer" in capsys.readouterr().err


def test_unknown_suite_is_an_argument_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-suite"])
    assert exc.value.code == 2
