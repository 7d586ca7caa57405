"""The benchmark's traced replay wraps library functions by module
attribute and names its spans from their arguments; a renamed or rebound
hook target would leave its layer metrics at 0. This runs the tracer's own
hooks, read from perfbench/ and never changed, over tiny CLI runs."""

import importlib
import os
import tracemalloc

import yaml

from fracwick import cli, fbm, sde, verify, wick

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

TINY = {"grid_n": 16, "n_paths": 8}
RUNS = [
    ("verify-ito", {}),
    ("verify-wentzell", {}),
    ("girsanov", {}),
    ("isometry", {}),
    ("solve-sde", {"solver": "picard"}),
    ("generate", {"generators": ["circulant", "cholesky", "hosking"]}),
]
SPANS = {
    "verify.ito_residuals.x1",
    "verify.wentzell_residuals.quad",
    "verify.girsanov_check.w",
    "verify.exponential_mean_report",
    "wick.isometry_check.w",
    "sde.solve_picard",
    "fbm.circulant.ensemble",
    "fbm.cholesky.ensemble",
    "fbm.hosking.ensemble",
}
PEAKS = {"fbm.peak_mb", "verify.residuals_peak_mb", "wick.isometry_peak_mb", "sde.peak_mb"}


def test_tracer_hooks_see_every_layer(tmp_path, monkeypatch):
    # the tracer keeps one span stack, so the runs use one worker thread
    monkeypatch.setenv("FRACWICK_THREADS", "1")
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    originals = [verify.ito_residuals, wick.isometry_check, sde.solve_picard, fbm.ensemble_values]
    tracer, tracker, patcher = layers.Tracer(), layers.PeakTracker(), layers.Patcher()
    layers.install_spans(tracer, patcher)
    layers.install_peaks(tracker, patcher)
    tracemalloc.start()
    try:
        for i, (suite, extra) in enumerate(RUNS):
            cfg_path = tmp_path / f"{i}.yaml"
            cfg_path.write_text(yaml.safe_dump({**TINY, **extra}))
            # at 8 paths a paired check may fail its verdict (exit 1); the
            # run itself must complete and write its manifest
            assert cli.main([suite, "--config", str(cfg_path), "--out", str(tmp_path / str(i))]) in (0, 1), suite
            assert (tmp_path / str(i) / "manifest.json").is_file(), suite
    finally:
        tracemalloc.stop()
        patcher.restore()
    assert [verify.ito_residuals, wick.isometry_check, sde.solve_picard, fbm.ensemble_values] == originals
    assert SPANS <= {span.name for span in tracer.spans}
    assert tracer.picard_iterations > 0
    assert PEAKS <= set(tracker.peaks_mb)
