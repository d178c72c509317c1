"""Scenario and sweep configuration files.

Configs are flat JSON objects with explicit keys; every field is checked
at parse time against the preconditions of the module it feeds, and the
offending field is named in the error message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .constants import (
    DEFAULT_DT,
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_T_MAX,
    MAX_DT,
    MAX_NEURONS,
)
from .errors import ConfigurationError
from .hopfield import ORDERS, SENSES, STANDARD, CYCLIC
from .hypercube import RULES, STRICT, HypercubeSpec, make_spec, vertex_hamming, vertex_index
from .lindblad import WalkParams

__all__ = [
    "ScenarioConfig",
    "SweepGrid",
    "parse_scenario",
    "parse_sweep",
    "parse_hopfield",
    "load_scenario",
    "load_sweep",
    "load_hopfield",
    "build_spec",
    "build_params",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment's settings; unused fields keep their defaults."""

    n: int
    sinks: tuple[str, ...] = ()
    initial: str = ""
    kappa: float = 1.0
    gamma: float = 1.0
    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT
    sample_every: float = DEFAULT_SAMPLE_EVERY
    edge_weights: tuple[tuple[str, str, float], ...] = ()
    equidistant_rule: str = STRICT
    threshold_sense: str = STANDARD
    seed: int = 0
    out: str | None = None
    stored: tuple[str, ...] = ()
    inputs: tuple[str, ...] = ()
    order: str = CYCLIC
    max_sweeps: int = 64


@dataclass(frozen=True)
class SweepGrid:
    """Strength grid swept over a fixed scenario."""

    kappas: tuple[float, ...]
    gammas: tuple[float, ...]
    base: ScenarioConfig


def _load_mapping(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path!r} must hold a JSON object")
    return data


def _field_int(data, key, default=None, minimum=None, maximum=None):
    if key not in data:
        if default is None:
            raise ConfigurationError(f"{key}: required field is missing")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{key}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigurationError(f"{key}: must be <= {maximum}, got {value}")
    return value


def _finite(key, value) -> float:
    """A JSON number as a float; NaN and the infinities json accepts are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{key}: expected a finite number, got {value!r}")
    return number


def _field_real(data, key, default=None, minimum=None, maximum=None, strict_min=False):
    if key not in data:
        if default is None:
            raise ConfigurationError(f"{key}: required field is missing")
        return default
    value = _finite(key, data[key])
    if minimum is not None:
        if strict_min and not value > minimum:
            raise ConfigurationError(f"{key}: must be > {minimum}, got {value}")
        if not strict_min and value < minimum:
            raise ConfigurationError(f"{key}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigurationError(f"{key}: must be <= {maximum}, got {value}")
    return value


def _field_choice(data, key, choices, default):
    value = data.get(key, default)
    if value not in choices:
        raise ConfigurationError(f"{key}: must be one of {choices}, got {value!r}")
    return value


def _field_pattern(key, value, n):
    if not isinstance(value, str) or len(value) != n or any(c not in "01" for c in value):
        raise ConfigurationError(
            f"{key}: expected a bit string of length {n}, got {value!r}"
        )
    return value


def _field_pattern_list(data, key, n, required, allow_empty=False):
    if key not in data:
        if required:
            raise ConfigurationError(f"{key}: required field is missing")
        return ()
    raw = data[key]
    if not isinstance(raw, list) or (not allow_empty and len(raw) == 0):
        raise ConfigurationError(f"{key}: expected a non-empty list of bit strings")
    return tuple(_field_pattern(key, v, n) for v in raw)


def _parse_common(data, require_walk: bool) -> dict:
    n = _field_int(data, "n", minimum=1, maximum=MAX_NEURONS)
    fields = {
        "n": n,
        "t_max": _field_real(data, "t_max", DEFAULT_T_MAX, minimum=0.0, strict_min=True),
        "dt": _field_real(data, "dt", DEFAULT_DT, minimum=0.0, maximum=MAX_DT, strict_min=True),
        "sample_every": _field_real(
            data, "sample_every", DEFAULT_SAMPLE_EVERY, minimum=0.0, strict_min=True
        ),
    }
    if fields["sample_every"] < fields["dt"]:
        raise ConfigurationError("sample_every: must be at least dt")
    fields |= {
        "equidistant_rule": _field_choice(data, "equidistant_rule", RULES, STRICT),
        "threshold_sense": _field_choice(data, "threshold_sense", SENSES, STANDARD),
        "seed": _field_int(data, "seed", 0, minimum=0, maximum=2**64 - 1),
        "order": _field_choice(data, "order", ORDERS, CYCLIC),
        "max_sweeps": _field_int(data, "max_sweeps", 64, minimum=1),
    }
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigurationError(f"out: expected a path string, got {out!r}")
    fields["out"] = out

    if require_walk:
        sinks = _field_pattern_list(data, "sinks", n, required=True)
        if len(set(sinks)) != len(sinks):
            raise ConfigurationError("sinks: patterns must be distinct")
        if len(sinks) >= (1 << n):
            raise ConfigurationError("sinks: at least one vertex must stay a non-sink")
        initial = _field_pattern("initial", data.get("initial"), n)
        fields["sinks"] = sinks
        fields["initial"] = initial

        weights = []
        raw = data.get("edge_weights", [])
        if not isinstance(raw, list):
            raise ConfigurationError("edge_weights: expected a list of triples")
        for entry in raw:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ConfigurationError(
                    f"edge_weights: expected [pattern, pattern, weight], got {entry!r}"
                )
            u = _field_pattern("edge_weights", entry[0], n)
            v = _field_pattern("edge_weights", entry[1], n)
            if vertex_hamming(vertex_index(u), vertex_index(v)) > 1:
                raise ConfigurationError(
                    f"edge_weights: {u!r} and {v!r} differ by more than one bit"
                )
            w = _finite("edge_weights", entry[2])
            if not w > 0:
                raise ConfigurationError(f"edge_weights: weight must be > 0, got {w!r}")
            weights.append((u, v, w))
        fields["edge_weights"] = tuple(weights)

    fields["stored"] = _field_pattern_list(data, "stored", n, required=False)
    fields["inputs"] = _field_pattern_list(data, "inputs", n, required=False)
    return fields


def parse_scenario(data: dict) -> ScenarioConfig:
    """Walk scenario: needs n, sinks, initial; strengths default to 1."""
    fields = _parse_common(data, require_walk=True)
    kappa = _field_real(data, "kappa", 1.0, minimum=0.0)
    gamma = _field_real(data, "gamma", 1.0, minimum=0.0)
    if kappa == 0 and gamma == 0:
        raise ConfigurationError("kappa/gamma: may not both be zero")
    return ScenarioConfig(kappa=kappa, gamma=gamma, **fields)


def parse_sweep(data: dict) -> SweepGrid:
    """Sweep grid: a walk scenario plus kappa_values and gamma_values."""
    fields = _parse_common(data, require_walk=True)
    base = ScenarioConfig(**fields)

    def _values(key):
        raw = data.get(key)
        if not isinstance(raw, list) or len(raw) == 0:
            raise ConfigurationError(f"{key}: expected a non-empty list of numbers")
        values = tuple(_finite(key, v) for v in raw)
        if any(v < 0 for v in values):
            raise ConfigurationError(f"{key}: entries must be numbers >= 0, got {raw!r}")
        return values

    kappas = _values("kappa_values")
    gammas = _values("gamma_values")
    if any(k == 0 and g == 0 for k in kappas for g in gammas):
        raise ConfigurationError(
            "kappa_values/gamma_values: the grid contains the forbidden point (0, 0)"
        )
    return SweepGrid(kappas=kappas, gammas=gammas, base=base)


def parse_hopfield(data: dict) -> ScenarioConfig:
    """Retrieval scenario: needs n, stored patterns and input patterns."""
    fields = _parse_common(data, require_walk=False)
    if len(fields["stored"]) == 0:
        raise ConfigurationError("stored: required field is missing or empty")
    if len(fields["inputs"]) == 0:
        raise ConfigurationError("inputs: required field is missing or empty")
    return ScenarioConfig(**fields)


def load_scenario(path: str) -> ScenarioConfig:
    return parse_scenario(_load_mapping(path))


def load_sweep(path: str) -> SweepGrid:
    return parse_sweep(_load_mapping(path))


def load_hopfield(path: str) -> ScenarioConfig:
    return parse_hopfield(_load_mapping(path))


def build_spec(cfg: ScenarioConfig) -> HypercubeSpec:
    return make_spec(cfg.n, cfg.sinks, cfg.edge_weights)


def build_params(cfg: ScenarioConfig, kappa: float | None = None, gamma: float | None = None) -> WalkParams:
    return WalkParams(
        kappa=cfg.kappa if kappa is None else kappa,
        gamma=cfg.gamma if gamma is None else gamma,
        t_max=cfg.t_max,
        dt=cfg.dt,
        sample_every=cfg.sample_every,
    )
