"""Walk, sweep and Hopfield configuration files.

Configs are flat JSON objects with explicit keys. Each kind accepts
exactly the keys its command reads: every field is checked at parse time
against the preconditions of the module it feeds, any other key is an
error, and the offending key is named in the error message.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .constants import (
    DEFAULT_DT,
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_T_MAX,
    MAX_DT,
    MAX_NEURONS,
    MAX_SAMPLES,
)
from .errors import ConfigurationError
from .hopfield import ORDERS, SENSES, STANDARD, CYCLIC
from .hypercube import RULES, STRICT, HypercubeSpec, make_spec, vertex_hamming, vertex_index
from .lindblad import WalkParams

__all__ = [
    "WalkConfig",
    "SweepGrid",
    "HopfieldConfig",
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
class WalkConfig:
    """One walk scenario, read by ``simulate`` and ``classical``."""

    n: int
    sinks: tuple[str, ...]
    initial: str
    kappa: float = 1.0
    gamma: float = 1.0
    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT
    sample_every: float = DEFAULT_SAMPLE_EVERY
    edge_weights: tuple[tuple[str, str, float], ...] = ()
    equidistant_rule: str = STRICT
    out: str | None = None


@dataclass(frozen=True)
class SweepGrid:
    """Strength grid swept over a fixed scenario; ``base``'s own kappa and gamma go unused."""

    kappas: tuple[float, ...]
    gammas: tuple[float, ...]
    base: WalkConfig


@dataclass(frozen=True)
class HopfieldConfig:
    """Stored and input patterns of the classical retrieval baseline."""

    n: int
    stored: tuple[str, ...]
    inputs: tuple[str, ...]
    threshold_sense: str = STANDARD
    order: str = CYCLIC
    max_sweeps: int = 64
    seed: int = 0
    out: str | None = None


# A config of each kind accepts exactly these keys: its dataclass's fields,
# and for a sweep the walk's fields with the strengths replaced by the grid.
WALK_KEYS = frozenset(f.name for f in dataclasses.fields(WalkConfig))
SWEEP_KEYS = WALK_KEYS - {"kappa", "gamma"} | {"kappa_values", "gamma_values"}
HOPFIELD_KEYS = frozenset(f.name for f in dataclasses.fields(HopfieldConfig))


def _load_mapping(path: str, overrides: dict | None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path!r} must hold a JSON object")
    return data | (overrides or {})


def _reject_unknown(data, keys: frozenset, kind: str) -> None:
    """Called after the known fields parsed, so a bad value is named under its own key."""
    unknown = sorted(str(key) for key in data if key not in keys)
    if unknown:
        raise ConfigurationError(
            f"{', '.join(unknown)}: not a key of a {kind} config "
            f"(it accepts {', '.join(sorted(keys))})"
        )


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


def _field_out(data):
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigurationError(f"out: expected a path string, got {out!r}")
    return out


def _field_pattern(key, value, n):
    if not isinstance(value, str) or len(value) != n or any(c not in "01" for c in value):
        raise ConfigurationError(
            f"{key}: expected a bit string of length {n}, got {value!r}"
        )
    return value


def _field_pattern_list(data, key, n):
    if key not in data:
        raise ConfigurationError(f"{key}: required field is missing")
    raw = data[key]
    if not isinstance(raw, list) or len(raw) == 0:
        raise ConfigurationError(f"{key}: expected a non-empty list of bit strings")
    return tuple(_field_pattern(key, v, n) for v in raw)


def _field_edge_weights(data, n):
    raw = data.get("edge_weights", [])
    if not isinstance(raw, list):
        raise ConfigurationError("edge_weights: expected a list of triples")
    weights = []
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
    return tuple(weights)


def _walk_fields(data) -> dict:
    """Every walk field except the strengths, which a sweep takes from its grid."""
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
    if fields["t_max"] / fields["sample_every"] > MAX_SAMPLES:
        raise ConfigurationError(
            f"t_max: {fields['t_max']:g} asks for more than {MAX_SAMPLES} samples "
            f"of sample_every = {fields['sample_every']:g}"
        )
    fields |= {
        "equidistant_rule": _field_choice(data, "equidistant_rule", RULES, STRICT),
        "out": _field_out(data),
    }
    sinks = _field_pattern_list(data, "sinks", n)
    if len(set(sinks)) != len(sinks):
        raise ConfigurationError("sinks: patterns must be distinct")
    if len(sinks) >= (1 << n):
        raise ConfigurationError("sinks: at least one vertex must stay a non-sink")
    fields["sinks"] = sinks
    fields["initial"] = _field_pattern("initial", data.get("initial"), n)
    fields["edge_weights"] = _field_edge_weights(data, n)
    return fields


def parse_scenario(data: dict) -> WalkConfig:
    """Walk scenario: needs n, sinks, initial; strengths default to 1."""
    fields = _walk_fields(data)
    kappa = _field_real(data, "kappa", 1.0, minimum=0.0)
    gamma = _field_real(data, "gamma", 1.0, minimum=0.0)
    if kappa == 0 and gamma == 0:
        raise ConfigurationError("kappa/gamma: may not both be zero")
    _reject_unknown(data, WALK_KEYS, "walk")
    return WalkConfig(kappa=kappa, gamma=gamma, **fields)


def parse_sweep(data: dict) -> SweepGrid:
    """Sweep grid: a walk scenario without strengths, plus kappa_values and gamma_values."""
    base = WalkConfig(**_walk_fields(data))

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
    _reject_unknown(data, SWEEP_KEYS, "sweep")
    return SweepGrid(kappas=kappas, gammas=gammas, base=base)


def parse_hopfield(data: dict) -> HopfieldConfig:
    """Retrieval scenario: needs n, stored patterns and input patterns."""
    n = _field_int(data, "n", minimum=1, maximum=MAX_NEURONS)
    cfg = HopfieldConfig(
        n=n,
        stored=_field_pattern_list(data, "stored", n),
        inputs=_field_pattern_list(data, "inputs", n),
        threshold_sense=_field_choice(data, "threshold_sense", SENSES, STANDARD),
        order=_field_choice(data, "order", ORDERS, CYCLIC),
        max_sweeps=_field_int(data, "max_sweeps", 64, minimum=1),
        seed=_field_int(data, "seed", 0, minimum=0, maximum=2**64 - 1),
        out=_field_out(data),
    )
    _reject_unknown(data, HOPFIELD_KEYS, "hopfield")
    return cfg


def load_scenario(path: str, overrides: dict | None = None) -> WalkConfig:
    """Parse a walk file; ``overrides`` replace its keys before any check."""
    return parse_scenario(_load_mapping(path, overrides))


def load_sweep(path: str, overrides: dict | None = None) -> SweepGrid:
    """Parse a sweep file; ``overrides`` replace its keys before any check."""
    return parse_sweep(_load_mapping(path, overrides))


def load_hopfield(path: str, overrides: dict | None = None) -> HopfieldConfig:
    """Parse a Hopfield file; ``overrides`` replace its keys before any check."""
    return parse_hopfield(_load_mapping(path, overrides))


def build_spec(cfg: WalkConfig) -> HypercubeSpec:
    return make_spec(cfg.n, cfg.sinks, cfg.edge_weights)


def build_params(cfg: WalkConfig, kappa: float | None = None, gamma: float | None = None) -> WalkParams:
    return WalkParams(
        kappa=cfg.kappa if kappa is None else kappa,
        gamma=cfg.gamma if gamma is None else gamma,
        t_max=cfg.t_max,
        dt=cfg.dt,
        sample_every=cfg.sample_every,
    )
