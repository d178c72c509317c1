"""Walk, sweep and Hopfield configuration files.

Configs are flat JSON objects with explicit keys. Each kind accepts
exactly the keys its command reads, and any other key is an error. The
parser checks the JSON itself: types, keys and bit strings. It then
builds the ``HypercubeSpec`` and ``WalkParams`` that the command runs,
so ``make_spec``, ``WalkParams`` and ``sample_grid`` check a walk's
values once. Every error message starts with the offending key.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

from .constants import (
    DEFAULT_DT,
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_T_MAX,
    MAX_NEURONS,
)
from .errors import ConfigurationError
from .hopfield import ORDERS, SENSES, STANDARD, CYCLIC
from .hypercube import RULES, STRICT, HypercubeSpec, make_spec
from .lindblad import WalkParams, sample_grid

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
]


@dataclass(frozen=True)
class WalkConfig:
    """One walk scenario, run by ``simulate`` and ``classical``."""

    spec: HypercubeSpec
    params: WalkParams
    initial: str
    equidistant_rule: str = STRICT
    out: str | None = None


@dataclass(frozen=True)
class SweepGrid:
    """Strength grid swept over a fixed scenario; ``base`` keeps the default strengths.

    ``points`` holds one ``WalkParams`` per grid point, every kappa for
    the first gamma, then every kappa for the next.
    """

    base: WalkConfig
    points: tuple[WalkParams, ...]


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


# A config of each kind accepts exactly these keys: a sweep takes the walk's
# keys with the strengths replaced by the grid, and Hopfield its dataclass's fields.
WALK_KEYS = frozenset({
    "n", "sinks", "initial", "kappa", "gamma", "t_max", "dt", "sample_every",
    "edge_weights", "equidistant_rule", "out",
})
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


def _field_real(data, key, default):
    return _finite(key, data[key]) if key in data else default


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
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigurationError(
                f"edge_weights: expected [pattern, pattern, weight], got {entry!r}"
            )
    key = "edge_weights"
    return tuple(
        (_field_pattern(key, u, n), _field_pattern(key, v, n), _finite(key, w)) for u, v, w in raw
    )


def _walk_fields(data) -> dict:
    """Every walk field except the strengths, which a sweep takes from its grid."""
    n = _field_int(data, "n", minimum=1, maximum=MAX_NEURONS)
    return {
        "n": n,
        "t_max": _field_real(data, "t_max", DEFAULT_T_MAX),
        "dt": _field_real(data, "dt", DEFAULT_DT),
        "sample_every": _field_real(data, "sample_every", DEFAULT_SAMPLE_EVERY),
        "equidistant_rule": _field_choice(data, "equidistant_rule", RULES, STRICT),
        "out": _field_out(data),
        "sinks": _field_pattern_list(data, "sinks", n),
        "initial": _field_pattern("initial", data.get("initial"), n),
        "edge_weights": _field_edge_weights(data, n),
    }


def _walk_config(fields: dict, kappa: float = 1.0, gamma: float = 1.0) -> WalkConfig:
    """Build the spec and params of ``_walk_fields``' result; they check its values."""
    spec = make_spec(fields["n"], fields["sinks"], fields["edge_weights"])
    params = WalkParams(
        kappa=kappa, gamma=gamma, t_max=fields["t_max"], dt=fields["dt"],
        sample_every=fields["sample_every"],
    )
    # The walk steps by dt; the classical chain on the same file steps once per sample.
    for step in (params.dt, params.sample_every):
        sample_grid(step, params.sample_every, params.t_max)
    return WalkConfig(spec, params, fields["initial"], fields["equidistant_rule"], fields["out"])


def parse_scenario(data: dict) -> WalkConfig:
    """Walk scenario: needs n, sinks, initial; strengths default to 1."""
    fields = _walk_fields(data)
    kappa, gamma = _field_real(data, "kappa", 1.0), _field_real(data, "gamma", 1.0)
    _reject_unknown(data, WALK_KEYS, "walk")
    return _walk_config(fields, kappa, gamma)


def parse_sweep(data: dict) -> SweepGrid:
    """Sweep grid: a walk scenario without strengths, plus kappa_values and gamma_values."""
    fields = _walk_fields(data)

    def _values(key):
        raw = data.get(key)
        if not isinstance(raw, list) or len(raw) == 0:
            raise ConfigurationError(f"{key}: expected a non-empty list of numbers")
        return tuple(_finite(key, v) for v in raw)

    kappas, gammas = _values("kappa_values"), _values("gamma_values")
    _reject_unknown(data, SWEEP_KEYS, "sweep")
    # base's default strengths pass, so this checks the scenario and its times,
    # and a grid point can then fail only on its strengths
    base = _walk_config(fields)
    points = []
    for gamma, kappa in itertools.product(gammas, kappas):
        try:
            points.append(dataclasses.replace(base.params, kappa=kappa, gamma=gamma))
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"kappa_values/gamma_values: point ({kappa:g}, {gamma:g}): {exc}"
            ) from exc
    return SweepGrid(base=base, points=tuple(points))


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
