"""Experiment configuration: YAML in, validated dataclass out.

Validation is strict: unknown keys at any nesting level raise ConfigError,
as do wrong types or out-of-range values. An unrecognized key is almost
always a typo of a recognized one, and silently ignoring it would run a
different experiment than the one the user wrote down.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any

import yaml

from .errors import ConfigError
from .fbm import GENERATOR_NAMES
from .sde import SOLVER_NAMES
from .verify import RESIDUAL_NAMES, case_registry, girsanov_case_registry, ladder_sizes
from .wick import MAX_NORM_SQ

SUITE_NAMES = (
    "generate",
    "verify-ito",
    "verify-product-rule",
    "verify-wentzell",
    "girsanov",
    "isometry",
    "solve-sde",
    "converge",
)

# The largest power of the horizon a suite forms: fBm scales as T^H, the
# isometry check's S for h(x) = x^2 as T^3H, its per-path S^2 as T^6H, and
# the squared deviations of S^2 behind that check's stderr as T^12H. The
# bound leaves 18 decades below the largest double for the path count and
# the tails of a degree-12 Gaussian polynomial.
_HORIZON_POWER = 12
_MAX_HORIZON_POWER = 1e290

# key -> (python type, brief description); bool checked before int since
# bool is an int subclass in Python.
_COMMON_KEYS = {
    "suite": (str, "suite name"),
    "hurst": (float, "Hurst exponent in (0, 1)"),
    "horizon": (float, "time horizon T > 0"),
    "master_seed": (int, "master seed, 0 <= seed < 2**64"),
    "output_dir": (str, "artifact directory"),
    "plots": (bool, "emit SVG plots"),
    "n_paths": (int, "ensemble size"),
    "grid_n": (int, "number of grid cells"),
}

_SUITE_EXTRA = {
    "generate": {"generators": (list, "generator names")},
    "verify-ito": {"cases": (list, "case names")},
    "verify-product-rule": {},
    "verify-wentzell": {"cases": (list, "case names")},
    "girsanov": {"cases": (list, "case names")},
    "isometry": {},
    "solve-sde": {
        "sde": (dict, "equation block"),
        "solver": (str, "solver name"),
        "checkpoints": (list, "report times"),
        "tol": (float, "picard tolerance"),
    },
    "converge": {
        "residual": (str, "residual family"),
        "case": (str, "case name"),
        "grid_sizes": (list, "grid ladder"),
    },
}

# The registry whose names the `cases` key of each suite that has it may
# list, as a function of the horizon.
_CASES_OF_SUITE = {
    "verify-ito": lambda horizon: case_registry("ito", horizon),
    "verify-wentzell": lambda horizon: case_registry("wentzell", horizon),
    "girsanov": girsanov_case_registry,
}

_SDE_KEYS = {
    "kind": (str, "equation kind"),
    "lam": (float, "mean-reversion rate"),
    "sigma": (float, "noise amplitude"),
    "x0": (float, "initial value"),
}


@dataclass(frozen=True)
class SdeBlock:
    kind: str = "fou"
    lam: float = 1.0
    sigma: float = 1.0
    x0: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
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


def _type_name(tp: type) -> str:
    return {float: "a number", int: "an integer", str: "a string", bool: "a boolean", list: "a list", dict: "a mapping"}[tp]


def _check_type(key: str, value: Any, tp: type) -> Any:
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"key '{key}' must be a boolean, got {value!r}")
        return value
    if isinstance(value, bool):
        raise ConfigError(f"key '{key}' must be {_type_name(tp)}, got a boolean")
    if tp is float:
        if not isinstance(value, (int, float)):
            raise ConfigError(f"key '{key}' must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, tp):
        raise ConfigError(f"key '{key}' must be {_type_name(tp)}, got {value!r}")
    return value


def _scalar_list(key: str, value: list, tp: type) -> tuple:
    """The entries of a list key, each checked for type. Every list key
    names a set (generators, cases, report times, ladder rungs), so an entry
    given twice would run or report the same thing twice: refused."""
    out = tuple(_check_type(f"{key}[{i}]", item, tp) for i, item in enumerate(value))
    repeated = sorted({v for i, v in enumerate(out) if v in out[:i]})
    if repeated:
        raise ConfigError(f"key '{key}' lists {repeated} more than once")
    return out


def _parse_sde_block(raw: dict) -> SdeBlock:
    unknown = set(raw) - set(_SDE_KEYS)
    if unknown:
        raise ConfigError(f"unknown key(s) under 'sde': {sorted(unknown)}")
    vals: dict[str, Any] = {}
    for key, value in raw.items():
        tp, _ = _SDE_KEYS[key]
        vals[key] = _check_type(f"sde.{key}", value, tp)
    block = SdeBlock(**vals)
    if block.kind != "fou":
        raise ConfigError(f"sde.kind must be 'fou', got {block.kind!r}")
    if block.lam < 0:
        raise ConfigError("sde.lam must be nonnegative")
    return block


def config_from_mapping(suite: str, raw: dict | None) -> ExperimentConfig:
    """Validate a parsed YAML mapping for the given suite."""
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    raw = dict(raw or {})
    allowed = dict(_COMMON_KEYS)
    allowed.update(_SUITE_EXTRA[suite])
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) for suite '{suite}': {sorted(unknown)}")

    vals: dict[str, Any] = {}
    for key, value in raw.items():
        tp, _ = allowed[key]
        vals[key] = _check_type(key, value, tp)

    declared = vals.pop("suite", suite)
    if declared != suite:
        raise ConfigError(
            f"config declares suite {declared!r} but was run as {suite!r}"
        )

    if "generators" in vals:
        vals["generators"] = _scalar_list("generators", vals["generators"], str)
        for g in vals["generators"]:
            if g not in GENERATOR_NAMES:
                raise ConfigError(f"unknown generator {g!r}; choose from {GENERATOR_NAMES}")
        if not vals["generators"]:
            raise ConfigError("generators must not be empty")
    if "cases" in vals:
        vals["cases"] = _scalar_list("cases", vals["cases"], str)
        if not vals["cases"]:
            raise ConfigError("key 'cases' must not be empty; omit it to run the default cases")
    if "checkpoints" in vals:
        vals["checkpoints"] = _scalar_list("checkpoints", vals["checkpoints"], float)
        if not vals["checkpoints"]:
            raise ConfigError("checkpoints must not be empty")
    if "grid_sizes" in vals:
        vals["grid_sizes"] = _scalar_list("grid_sizes", vals["grid_sizes"], int)
    if "sde" in vals:
        vals["sde"] = _parse_sde_block(vals["sde"])

    cfg = ExperimentConfig(suite=suite, **vals)

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
        for t in cfg.checkpoints:
            if not 0.0 < t <= cfg.horizon:
                raise ConfigError(f"checkpoints entry {t:g} outside (0, horizon {cfg.horizon:g}]")
    for n in cfg.grid_sizes:
        if n < 2:
            raise ConfigError("grid_sizes entries must be at least 2")
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
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return config_from_mapping(suite, raw)
