"""Experiment configuration: YAML in, validated dataclass out.

The annotations of ExperimentConfig and SdeBlock are the schema: each key's
type is stated there once, and one checker reads them. ExperimentConfig's
docstring lists the keys each suite takes. Every setup check runs here,
before any draw. Validation is strict: unknown keys at any nesting level
raise ConfigError, as do wrong types or out-of-range values. An
unrecognized key is almost always a typo of a recognized one, and silently
ignoring it would run a different experiment than the one the user wrote
down.
"""
from __future__ import annotations

import math
import re
import typing
from dataclasses import dataclass, field
from typing import Any

import yaml

from .errors import ConfigError
from .fbm import GENERATOR_NAMES
from .grids import TimeGrid
from .sde import SOLVER_NAMES
from .verify import MAX_LADDER_BUDGET, RESIDUAL_NAMES, case_registry, girsanov_case_registry, ladder_sizes
from .wick import MAX_NORM_SQ

# The largest power of the horizon a suite forms: fBm scales as T^H, the
# isometry check's S for h(x) = x^2 as T^3H, its per-path S^2 as T^6H, and
# the squared deviations of S^2 behind that check's stderr as T^12H. The
# bound leaves 18 decades below the largest double for the path count and
# the tails of a degree-12 Gaussian polynomial.
_HORIZON_POWER = 12
_MAX_HORIZON_POWER = 1e290


@dataclass(frozen=True)
class SdeBlock:
    kind: str = "fou"
    lam: float = 1.0
    sigma: float = 1.0
    x0: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; the annotations are the schema of its YAML keys.

    Every suite takes suite, hurst, horizon, master_seed, output_dir, plots,
    n_paths and grid_n. Besides these, generate takes generators;
    verify-ito, verify-wentzell and girsanov take cases; solve-sde takes
    sde, solver, checkpoints and tol; converge takes residual, case and
    grid_sizes. A key a suite does not take is refused.
    """

    suite: str
    hurst: float = 0.7
    horizon: float = 1.0
    master_seed: int = 0
    output_dir: str = "fracwick-out"
    plots: bool = False
    n_paths: int = 2000
    grid_n: int = 256
    generators: tuple[str, ...] = GENERATOR_NAMES
    cases: tuple[str, ...] = ()
    sde: SdeBlock = field(default_factory=SdeBlock)
    solver: str = "flow-rk4"
    checkpoints: tuple[float, ...] = (0.5, 1.0)
    tol: float = 1e-10
    residual: str = "ito"
    case: str = "x2"
    grid_sizes: tuple[int, ...] = (32, 64, 128, 256)


# The keys each suite takes besides the common ones, which are the fields
# of ExperimentConfig that no suite lists here.
_SUITE_KEYS = {
    "generate": ("generators",),
    "verify-ito": ("cases",),
    "verify-product-rule": (),
    "verify-wentzell": ("cases",),
    "girsanov": ("cases",),
    "isometry": (),
    "solve-sde": ("sde", "solver", "checkpoints", "tol"),
    "converge": ("residual", "case", "grid_sizes"),
}
SUITE_NAMES = tuple(_SUITE_KEYS)

# The registry whose names the `cases` key of each suite that has it may
# list, as a function of the horizon.
_CASES_OF_SUITE = {
    "verify-ito": lambda horizon: case_registry("ito", horizon),
    "verify-wentzell": lambda horizon: case_registry("wentzell", horizon),
    "girsanov": girsanov_case_registry,
}

_HINTS = {cls: typing.get_type_hints(cls) for cls in (ExperimentConfig, SdeBlock)}
_COMMON = set(_HINTS[ExperimentConfig]) - {key for keys in _SUITE_KEYS.values() for key in keys}
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "a boolean"}


def _checked_fields(cls: type, raw: dict, allowed: set, where: str, prefix: str = "") -> dict:
    """The entries of raw, each checked against its annotation in cls."""
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {where}: {sorted(unknown, key=str)}")
    return {key: _checked(prefix + key, value, _HINTS[cls][key]) for key, value in raw.items()}


def _checked(key: str, value: Any, tp: Any) -> Any:
    """value as a field annotated tp holds it, or a ConfigError naming key:
    a float takes any number, a tuple[T, ...] a nonempty list of T that
    names no entry twice, and a dataclass a mapping of its fields."""
    if tp in _HINTS:
        if not isinstance(value, dict):
            raise ConfigError(f"key '{key}' must be a mapping, got {value!r}")
        return tp(**_checked_fields(tp, value, set(_HINTS[tp]), f"under '{key}'", f"{key}."))
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"key '{key}' must be a list, got {value!r}")
        out = tuple(_checked(f"{key}[{i}]", item, typing.get_args(tp)[0]) for i, item in enumerate(value))
        if not out:
            raise ConfigError(f"key '{key}' must not be empty; omit it to take its default")
        # every list key names a set (generators, cases, report times, ladder
        # rungs), so an entry given twice would run or report it twice
        repeated = sorted({v for i, v in enumerate(out) if v in out[:i]})
        if repeated:
            raise ConfigError(f"key '{key}' lists {repeated} more than once")
        return out
    # bool is an int subclass in Python, so it is refused first
    if isinstance(value, bool) and tp is not bool:
        raise ConfigError(f"key '{key}' must be {_TYPE_NAMES[tp]}, got a boolean")
    if not isinstance(value, (int, float) if tp is float else tp):
        raise ConfigError(f"key '{key}' must be {_TYPE_NAMES[tp]}, got {value!r}")
    try:
        return float(value) if tp is float else value
    except OverflowError:
        raise ConfigError(f"key '{key}' must be a number, got an integer beyond the float range") from None


def config_from_mapping(suite: str, raw: dict | None) -> ExperimentConfig:
    """Validate a parsed YAML mapping for the given suite."""
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    allowed = _COMMON | set(_SUITE_KEYS[suite])
    vals = _checked_fields(ExperimentConfig, dict(raw or {}), allowed, f"for suite '{suite}'")
    declared = vals.pop("suite", suite)
    if declared != suite:
        raise ConfigError(f"config declares suite {declared!r} but was run as {suite!r}")
    cfg = ExperimentConfig(suite=suite, **vals)

    for g in cfg.generators:
        if g not in GENERATOR_NAMES:
            raise ConfigError(f"unknown generator {g!r}; choose from {GENERATOR_NAMES}")
    if cfg.sde.kind != "fou":
        raise ConfigError(f"sde.kind must be 'fou', got {cfg.sde.kind!r}")
    if cfg.sde.lam < 0:
        raise ConfigError("sde.lam must be nonnegative")
    if not 0.0 < cfg.hurst < 1.0:
        raise ConfigError(f"hurst must lie in (0, 1), got {cfg.hurst}")
    if cfg.horizon <= 0:
        raise ConfigError("horizon must be positive")
    # compared in logs, since the power itself can overflow; "not <=" also
    # refuses a NaN horizon
    if not _HORIZON_POWER * cfg.hurst * math.log(cfg.horizon) <= math.log(_MAX_HORIZON_POWER):
        raise ConfigError(
            f"horizon ** ({_HORIZON_POWER} * hurst) must not exceed {_MAX_HORIZON_POWER:g}, "
            f"got horizon {cfg.horizon:g} at hurst {cfg.hurst:g}"
        )
    if not 0 <= cfg.master_seed < 2**64:
        raise ConfigError("master_seed must satisfy 0 <= seed < 2**64")
    if cfg.n_paths < 2:
        raise ConfigError("n_paths must be at least 2 (every check needs a standard error)")
    if cfg.grid_n < 1:
        raise ConfigError("grid_n must be at least 1")
    # converge samples its grid_sizes ladder, which ladder_sizes caps below
    if suite != "converge" and cfg.n_paths * (cfg.grid_n + 1) > MAX_LADDER_BUDGET:
        raise ConfigError(
            f"n_paths * (grid_n + 1) = {cfg.n_paths} * {cfg.grid_n + 1} exceeds the cap of "
            f"{MAX_LADDER_BUDGET} path-matrix cells; shrink n_paths or grid_n"
        )
    if cfg.solver not in SOLVER_NAMES:
        raise ConfigError(f"unknown solver {cfg.solver!r}; choose from {SOLVER_NAMES}")
    if cfg.residual not in RESIDUAL_NAMES:
        raise ConfigError(f"unknown residual {cfg.residual!r}; choose from {RESIDUAL_NAMES}")
    if cfg.tol <= 0:
        raise ConfigError("tol must be positive")
    if cfg.cases:
        known = _CASES_OF_SUITE[suite](cfg.horizon)
        unknown = [name for name in cfg.cases if name not in known]
        if unknown:
            raise ConfigError(
                f"key 'cases' lists unknown case(s) {unknown} for suite '{suite}'; "
                f"known: {sorted(known)}"
            )
    if suite == "converge":
        known = case_registry(cfg.residual, cfg.horizon)
        if cfg.case not in known:
            raise ConfigError(
                f"key 'case' names unknown case {cfg.case!r} for residual "
                f"'{cfg.residual}'; known: {sorted(known)}"
            )
    if suite == "solve-sde":
        points = TimeGrid.uniform(cfg.grid_n, cfg.horizon).points
        for t in cfg.checkpoints:
            if not 0.0 < t <= cfg.horizon:
                raise ConfigError(f"checkpoints entry {t:g} outside (0, horizon {cfg.horizon:g}]")
            if t not in points:
                raise ConfigError(
                    f"checkpoints entry {t:g} is not a grid point; use multiples of "
                    f"horizon/grid_n = {cfg.horizon / cfg.grid_n:g}"
                )
    if suite == "converge":
        try:
            ladder_sizes(cfg.grid_sizes, cfg.n_paths)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    # A Picard slab is never narrower than one cell, and the trapezoid
    # fixed-point map on one cell contracts by dt * lam / 2: from 2 on it
    # diverges, which is a setup error rather than a numerical failure.
    if cfg.solver == "picard" and cfg.sde.lam * cfg.horizon / cfg.grid_n >= 2.0:
        need = math.floor(cfg.sde.lam * cfg.horizon / 2.0) + 1
        raise ConfigError(
            f"picard needs sde.lam * horizon / grid_n < 2, got "
            f"{cfg.sde.lam:g} * {cfg.horizon:g} / {cfg.grid_n}; use grid_n >= {need}"
        )
    # every girsanov weight has ||f||^2_phi <= T^2H, the unit level's norm;
    # compared in logs, since the power itself can overflow
    if suite == "girsanov" and 2.0 * cfg.hurst * math.log(cfg.horizon) > math.log(MAX_NORM_SQ):
        raise ConfigError(
            f"girsanov needs horizon ** (2 * hurst) <= {MAX_NORM_SQ:g}, "
            f"got horizon {cfg.horizon:g} at hurst {cfg.hurst:g}"
        )
    return cfg


class _Loader(yaml.SafeLoader):
    """SafeLoader with the YAML 1.2 float syntax: PyYAML resolves floats by
    the YAML 1.1 rule, which needs a dot, so 1e-10 would load as a string.
    Quoted scalars stay strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def load_config(path: str, suite: str) -> ExperimentConfig:
    """Read and validate a YAML config file for the given suite."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"could not read config file {path}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}")
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return config_from_mapping(suite, raw)
