"""Traced in-process replay of one workload, for the per-layer metrics.

The replay calls ``fracwick.cli.main`` with the workload's own arguments,
one thread at a time (FRACWICK_THREADS=1 and one BLAS thread), so it is also
the plain single-threaded baseline of the same problem. Spans are recorded
by wrapping, from this file, the public functions each layer exposes; the
package itself carries no instrumentation. A span keeps its name, start,
end and parent; spans stay in memory and are written out when the replay
ends. The random-number layer is called once per path, so it is kept as
running totals rather than as spans.

Peak memory per layer comes from a second replay under tracemalloc, kept
apart because tracemalloc slows the Python-heavy solvers by about a quarter.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import bench

ITO_CASES = ("x1", "x2", "x2-step", "x3", "sin")
WENTZELL_CASES = ("xw", "deterministic", "constant", "quad")
GIRSANOV_CASES = ("w", "w2", "expw", "zero")
ISOMETRY_INTEGRANDS = ("step-const", "step-halves", "const", "w", "w2")
SDE_SOLVERS = ("picard", "flow-rk4")
GENERATORS = ("circulant", "cholesky", "hosking")

# (name, unit, better). Every traced run reports all of them; a layer the
# workload never calls reads 0. README.md maps each to the end-to-end
# metric it should move and the workload that exercises it.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("rng.seed_ms", "ms", "lower"),
    ("rng.draw_ms", "ms", "lower"),
    ("rng.streams", "count", "lower"),
    ("rng.draws", "count", "lower"),
    *((f"fbm.{g}.ensemble_ms", "ms", "lower") for g in GENERATORS),
    ("fbm.circulant.transform_ms", "ms", "lower"),
    *((f"fbm.{g}.setup_ms", "ms", "lower") for g in GENERATORS),
    ("fbm.peak_mb", "MB", "lower"),
    ("phicalc.rect_weight_matrix_ms", "ms", "lower"),
    ("phicalc.rect_weight_matrix_mb", "MB", "lower"),
    ("phicalc.kernel_K_array_ms", "ms", "lower"),
    ("phicalc.phi_norm_sq_ms", "ms", "lower"),
    *((f"verify.ito_residuals.{c}_ms", "ms", "lower") for c in ITO_CASES),
    *((f"verify.wentzell_residuals.{c}_ms", "ms", "lower") for c in WENTZELL_CASES),
    ("verify.lower_kernel_ms", "ms", "lower"),
    ("verify.residual_arith_ms", "ms", "lower"),
    ("verify.residuals_peak_mb", "MB", "lower"),
    *((f"verify.girsanov_check.{c}_ms", "ms", "lower") for c in GIRSANOV_CASES),
    ("verify.exponential_mean_report_ms", "ms", "lower"),
    *((f"wick.isometry_check.{i}_ms", "ms", "lower") for i in ISOMETRY_INTEGRANDS),
    ("wick.isometry_peak_mb", "MB", "lower"),
    *((f"sde.sde_mc_stats.{s}_ms", "ms", "lower") for s in SDE_SOLVERS),
    ("sde.solver_self_ms", "ms", "lower"),
    ("sde.fou_oracle_ms", "ms", "lower"),
    ("sde.picard_iterations", "count", "lower"),
    ("sde.picard_slabs", "count", "lower"),
    ("sde.peak_mb", "MB", "lower"),
    ("mc.reduce_ms", "ms", "lower"),
    ("grids.write_ensemble_csv_ms", "ms", "lower"),
    ("suites.write_report_csv_ms", "ms", "lower"),
    ("io.bytes_written", "count", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("config.load_config_ms", "ms", "lower"),
    ("suites.parallel_ratio", "ratio", "higher"),
    ("trace.replay_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

MB = 2.0**20


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    rng_s: float = 0.0  # random-number time spent inside this span

    @property
    def dur(self) -> float:
        return self.end - self.start


class Patcher:
    """Swaps functions for wrappers wherever the package binds them, and
    puts the originals back on restore()."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, wrap) -> None:
        original = getattr(module, attr)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("fracwick") and getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def method(self, cls, attr: str, wrap) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _TimedGenerator:
    """Generator stand-in that books the time and size of normal draws."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.rng_draw_s += time.perf_counter() - t0
        self._tracer.rng_draws += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Span recorder. The replay runs one thread at a time (the suite's
    pool has one worker and the caller waits on it), so one stack gives
    every span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.rng_seed_s = 0.0
        self.rng_draw_s = 0.0
        self.rng_streams = 0
        self.rng_draws = 0
        self.rect_mb = 0.0
        self.picard_iterations = 0
        self.picard_slabs = 0

    def _rng_total(self) -> float:
        return self.rng_seed_s + self.rng_draw_s

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name)
        self.spans.append(span)
        self._stack.append(span.id)
        span.rng_s = self._rng_total()
        span.start = time.perf_counter()
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.rng_s = self._rng_total() - span.rng_s
        self._stack.pop()

    def spanned(self, name, on_result=None):
        """Wrapper factory; name is a string or a function of the call's
        arguments (used to split a layer by case or solver)."""

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self.begin(name(*args, **kwargs) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.finish(span)
                if on_result is not None:
                    on_result(result)
                return result

            return traced

        return wrap

    def timed_generator(self, fn):
        @functools.wraps(fn)
        def traced(spec):
            t0 = time.perf_counter()
            gen = fn(spec)
            self.rng_seed_s += time.perf_counter() - t0
            self.rng_streams += 1
            return _TimedGenerator(gen, self)

        return traced

    def _on_rect(self, result) -> None:
        self.rect_mb = max(self.rect_mb, result.nbytes / MB)

    def _on_picard(self, result) -> None:
        self.picard_iterations += int(result.iterations)
        self.picard_slabs += int(result.diagnostics.get("n_slabs", 0))


def _named(prefix: str):
    def label(*args, name=None, **kwargs) -> str:
        return f"{prefix}.{(name or '?').split(':', 1)[-1]}"

    return label


def install_spans(tracer: Tracer, patcher: Patcher) -> None:
    from fracwick import config, fbm, grids, mc, phicalc, rng, sde, suites, verify, wick

    s = tracer.spanned
    patcher.method(rng.SeedSpec, "generator", tracer.timed_generator)
    patcher.function(fbm, "ensemble_values", s(lambda method, *a, **k: f"fbm.{method}.ensemble"))
    patcher.function(fbm, "circulant_eigenvalues", s("fbm.circulant.setup"))
    patcher.method(fbm.CovarianceMatrix, "cholesky", s("fbm.cholesky.setup"))
    patcher.function(fbm, "hosking_coefficients", s("fbm.hosking.setup"))
    patcher.function(phicalc, "rect_weight_matrix", s("phicalc.rect_weight_matrix", tracer._on_rect))
    patcher.function(phicalc, "kernel_K_array", s("phicalc.kernel_K_array"))
    patcher.function(phicalc, "phi_norm_sq", s("phicalc.phi_norm_sq"))
    patcher.function(verify, "ito_residuals", s(lambda c, *a, **k: f"verify.ito_residuals.{c.label}"))
    patcher.function(verify, "wentzell_residuals", s(lambda c, *a, **k: f"verify.wentzell_residuals.{c.label}"))
    patcher.function(verify, "_lower_kernel", s("verify.lower_kernel"))
    patcher.function(verify, "girsanov_check", s(_named("verify.girsanov_check")))
    patcher.function(verify, "exponential_mean_report", s("verify.exponential_mean_report"))
    patcher.function(wick, "isometry_check", s(_named("wick.isometry_check")))
    patcher.function(
        sde, "sde_mc_stats", s(lambda *a, solver="flow-rk4", **k: f"sde.sde_mc_stats.{solver}")
    )
    patcher.function(sde, "fou_oracle", s("sde.fou_oracle"))
    patcher.function(sde, "solve_picard", s("sde.solve_picard", tracer._on_picard))
    patcher.method(mc.MonteCarloReport, "from_samples", s("mc.reduce"))
    patcher.method(mc.MonteCarloReport, "from_paired", s("mc.reduce"))
    patcher.function(grids, "write_ensemble_csv", s("grids.write_ensemble_csv"))
    patcher.function(suites, "write_report_csv", s("suites.write_report_csv"))
    patcher.function(config, "load_config", s("config.load_config"))


class PeakTracker:
    """Largest tracemalloc growth above the entry level, per layer.

    Nested layers share tracemalloc's one peak counter, so each wrapper
    hands the peak it saw to its caller before resetting the counter.
    """

    def __init__(self):
        self.peaks_mb: dict[str, float] = defaultdict(float)
        self._frames: list[list[int]] = []  # [traced at entry, peak so far]

    def tracked(self, key: str):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                current, peak = tracemalloc.get_traced_memory()
                if self._frames:
                    self._frames[-1][1] = max(self._frames[-1][1], peak)
                tracemalloc.reset_peak()
                frame = [current, current]
                self._frames.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._frames.pop()
                    top = max(frame[1], tracemalloc.get_traced_memory()[1])
                    self.peaks_mb[key] = max(self.peaks_mb[key], (top - frame[0]) / MB)
                    if self._frames:
                        self._frames[-1][1] = max(self._frames[-1][1], top)
                    tracemalloc.reset_peak()

            return traced

        return wrap


def install_peaks(tracker: PeakTracker, patcher: Patcher) -> None:
    from fracwick import fbm, sde, verify, wick

    patcher.function(fbm, "ensemble_values", tracker.tracked("fbm.peak_mb"))
    patcher.function(verify, "ito_residuals", tracker.tracked("verify.residuals_peak_mb"))
    patcher.function(verify, "wentzell_residuals", tracker.tracked("verify.residuals_peak_mb"))
    patcher.function(wick, "isometry_check", tracker.tracked("wick.isometry_peak_mb"))
    patcher.function(sde, "sde_mc_stats", tracker.tracked("sde.peak_mb"))


def replay(workload: str, seed: int, outdirs: list[str], tracer: Tracer | None = None) -> list[int]:
    """Run the workload's CLI invocations in this process; exit codes."""
    from fracwick import cli

    codes = []
    for (suite, config), outdir in zip(bench.WORKLOADS[workload], outdirs):
        argv = bench.cli_args(suite, config, seed, outdir)
        span = tracer.begin(f"cli.{suite}") if tracer else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        finally:
            if span is not None:
                tracer.finish(span)
    return codes


def _covered(spans: list[Span], children: dict, root: Span, prefix: str) -> float:
    """Time inside root spent in its outermost descendants named prefix*."""
    total = 0.0
    stack = list(children[root.id])
    while stack:
        span = spans[stack.pop()]
        if span.name.startswith(prefix):
            total += span.dur
        else:
            stack.extend(children[span.id])
    return total


def layer_metrics(tracer: Tracer, peaks_mb: dict[str, float]) -> dict[str, float]:
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    total: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span.id)
        total[span.name] += span.dur

    def ms(name: str) -> float:
        return total[name] * 1e3

    def named(prefix: str) -> list[Span]:
        return [sp for sp in spans if sp.name.startswith(prefix)]

    out = {
        "rng.seed_ms": tracer.rng_seed_s * 1e3,
        "rng.draw_ms": tracer.rng_draw_s * 1e3,
        "rng.streams": tracer.rng_streams,
        "rng.draws": tracer.rng_draws,
        "fbm.circulant.transform_ms": 1e3
        * sum(sp.dur - sp.rng_s for sp in named("fbm.circulant.ensemble")),
        "phicalc.rect_weight_matrix_mb": tracer.rect_mb,
        "verify.lower_kernel_ms": ms("verify.lower_kernel"),
        "verify.residual_arith_ms": 1e3
        * sum(
            sp.dur - _covered(spans, children, sp, "phicalc.rect_weight_matrix")
            for sp in named("verify.ito_residuals.") + named("verify.wentzell_residuals.")
        ),
        "verify.exponential_mean_report_ms": ms("verify.exponential_mean_report"),
        "sde.solver_self_ms": 1e3
        * sum(
            sp.dur - _covered(spans, children, sp, "fbm.")
            for sp in named("sde.sde_mc_stats.")
        ),
        "sde.fou_oracle_ms": ms("sde.fou_oracle"),
        "sde.picard_iterations": tracer.picard_iterations,
        "sde.picard_slabs": tracer.picard_slabs,
        "mc.reduce_ms": ms("mc.reduce"),
        "grids.write_ensemble_csv_ms": ms("grids.write_ensemble_csv"),
        "suites.write_report_csv_ms": ms("suites.write_report_csv"),
    }
    for g in GENERATORS:
        out[f"fbm.{g}.ensemble_ms"] = ms(f"fbm.{g}.ensemble")
        out[f"fbm.{g}.setup_ms"] = ms(f"fbm.{g}.setup")
    for layer in ("rect_weight_matrix", "kernel_K_array", "phi_norm_sq"):
        out[f"phicalc.{layer}_ms"] = ms(f"phicalc.{layer}")
    for c in ITO_CASES:
        out[f"verify.ito_residuals.{c}_ms"] = ms(f"verify.ito_residuals.{c}")
    for c in WENTZELL_CASES:
        out[f"verify.wentzell_residuals.{c}_ms"] = ms(f"verify.wentzell_residuals.{c}")
    for c in GIRSANOV_CASES:
        out[f"verify.girsanov_check.{c}_ms"] = ms(f"verify.girsanov_check.{c}")
    for i in ISOMETRY_INTEGRANDS:
        out[f"wick.isometry_check.{i}_ms"] = ms(f"wick.isometry_check.{i}")
    for s in SDE_SOLVERS:
        out[f"sde.sde_mc_stats.{s}_ms"] = ms(f"sde.sde_mc_stats.{s}")
    for key in ("fbm.peak_mb", "verify.residuals_peak_mb", "wick.isometry_peak_mb", "sde.peak_mb"):
        out[key] = peaks_mb.get(key, 0.0)
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    rows = [
        {
            "id": sp.id,
            "parent": sp.parent,
            "name": sp.name,
            "start_ms": (sp.start - t0) * 1e3,
            "end_ms": (sp.end - t0) * 1e3,
        }
        for sp in tracer.spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": rows}, fh, indent=0)
        fh.write("\n")


def traced_run(workload: str, seed: int, workdir: str, trace_path: str):
    """Timed replay, then the tracemalloc replay.

    Returns (layer metrics, replay wall seconds, exit codes and output
    directories of both replays).
    """
    n = len(bench.WORKLOADS[workload])
    timed_dirs = [os.path.join(workdir, f"traced_{i}") for i in range(n)]
    peak_dirs = [os.path.join(workdir, f"tracemalloc_{i}") for i in range(n)]

    import fracwick.cli  # noqa: F401  (imports every layer before patching)

    tracer = Tracer()
    patcher = Patcher()
    install_spans(tracer, patcher)
    start = time.perf_counter()
    try:
        timed_codes = replay(workload, seed, timed_dirs, tracer)
    finally:
        patcher.restore()
    replay_s = time.perf_counter() - start
    write_spans(tracer, trace_path)

    tracker = PeakTracker()
    install_peaks(tracker, patcher)
    tracemalloc.start()
    try:
        peak_codes = replay(workload, seed, peak_dirs)
    finally:
        tracemalloc.stop()
        patcher.restore()

    metrics = layer_metrics(tracer, tracker.peaks_mb)
    metrics["io.bytes_written"] = sum(
        os.path.getsize(os.path.join(d, f)) for d in timed_dirs if os.path.isdir(d) for f in os.listdir(d)
    )
    return metrics, replay_s, list(zip(timed_codes, timed_dirs)) + list(zip(peak_codes, peak_dirs))
