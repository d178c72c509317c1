"""Walk, sweep and Hopfield configuration files.

Configs are flat JSON objects with explicit keys. Each kind accepts
exactly the keys its command reads, and any other key is an error. The
parser checks only the JSON: types, keys and shapes, and that
``initial`` and the Hopfield patterns are bit strings of length n
(``vertex_index``). Every value is checked once, by the object that
owns it: ``WalkParams`` checks the strengths and times, ``make_spec``
the sinks, edge weights and ``equidistant_rule`` (which becomes the
spec's ``rule``), ``sample_grid`` the sample and step caps, and
``hopfield.check_options`` the Hopfield options. The checks run in this
order: the JSON, the strengths and times (each sweep point's too) or the
Hopfield options, the unknown keys, then the spec and the caps. Every
error message starts with the offending key.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass

from .constants import (
    DEFAULT_DT,
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_T_MAX,
    MAX_NEURONS,
)
from .errors import ConfigurationError
from .hopfield import STANDARD, CYCLIC, check_options
from .hypercube import STRICT, HypercubeSpec, make_spec, vertex_index
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
    # JSONDecodeError, UnicodeDecodeError and the integer-digit limit's error are all ValueErrors.
    except ValueError as exc:
        raise ConfigurationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path!r} must hold a JSON object")
    return data | (overrides or {})


def _reject_unknown(data, keys: frozenset, kind: str) -> None:
    """Called once the known fields' JSON is checked, so a fault there is named by its key."""
    unknown = sorted(str(key) for key in data if key not in keys)
    if unknown:
        raise ConfigurationError(
            f"{', '.join(unknown)}: not a key of a {kind} config "
            f"(it accepts {', '.join(sorted(keys))})"
        )


def _field_n(data) -> int:
    if "n" not in data:
        raise ConfigurationError("n: required field is missing")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_NEURONS:
        raise ConfigurationError(f"n: expected an integer in 1..{MAX_NEURONS}, got {n!r}")
    return n


def _field_out(data):
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigurationError(f"out: expected a path string, got {out!r}")
    return out


def _field_patterns(data, key, n=None) -> tuple:
    """A non-empty list of strings, each a bit string of length ``n`` if given."""
    if key not in data:
        raise ConfigurationError(f"{key}: required field is missing")
    raw = data[key]
    if not isinstance(raw, list) or not raw or not all(isinstance(p, str) for p in raw):
        raise ConfigurationError(f"{key}: expected a non-empty list of bit strings")
    if n is not None:
        for p in raw:
            vertex_index(p, n, key)
    return tuple(raw)


def _field_edge_weights(data) -> tuple:
    raw = data.get("edge_weights", [])
    if not isinstance(raw, list):
        raise ConfigurationError("edge_weights: expected a list of triples")
    for entry in raw:
        triple = isinstance(entry, list) and len(entry) == 3
        if not (triple and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise ConfigurationError(
                f"edge_weights: expected [pattern, pattern, weight], got {entry!r}"
            )
    return tuple(tuple(entry) for entry in raw)


def _walk_fields(data) -> dict:
    """The JSON of every walk field except the strengths, which a sweep takes from its grid.

    The sinks' and edge weights' bits are left to ``make_spec``, and the
    times to ``WalkParams``.
    """
    n = _field_n(data)
    initial = data.get("initial")
    vertex_index(initial, n, "initial")
    return {
        "n": n,
        "times": {
            "t_max": data.get("t_max", DEFAULT_T_MAX),
            "dt": data.get("dt", DEFAULT_DT),
            "sample_every": data.get("sample_every", DEFAULT_SAMPLE_EVERY),
        },
        "rule": data.get("equidistant_rule", STRICT),
        "out": _field_out(data),
        "sinks": _field_patterns(data, "sinks"),
        "initial": initial,
        "edge_weights": _field_edge_weights(data),
    }


def _walk_config(fields: dict, params: WalkParams) -> WalkConfig:
    """Build the spec of ``_walk_fields``' result and check the sample caps of ``params``."""
    spec = make_spec(fields["n"], fields["sinks"], fields["edge_weights"], fields["rule"])
    # The walk steps by dt; the classical chain on the same file steps once per sample.
    for step in (params.dt, params.sample_every):
        sample_grid(step, params.sample_every, params.t_max)
    return WalkConfig(spec, params, fields["initial"], fields["out"])


def parse_scenario(data: dict) -> WalkConfig:
    """Walk scenario: needs n, sinks, initial; strengths default to 1."""
    fields = _walk_fields(data)
    params = WalkParams(data.get("kappa", 1.0), data.get("gamma", 1.0), **fields["times"])
    _reject_unknown(data, WALK_KEYS, "walk")
    return _walk_config(fields, params)


def _number_text(value) -> str:
    """A JSON value in a sweep point's label: a float as ``%g``, anything else as written."""
    return f"{value:g}" if isinstance(value, float) else repr(value)


def parse_sweep(data: dict) -> SweepGrid:
    """Sweep grid: a walk scenario without strengths, plus kappa_values and gamma_values."""
    fields = _walk_fields(data)

    def _values(key):
        raw = data.get(key)
        if not isinstance(raw, list) or len(raw) == 0:
            raise ConfigurationError(f"{key}: expected a non-empty list of numbers")
        return raw

    kappas, gammas = _values("kappa_values"), _values("gamma_values")
    # The default strengths pass, so this checks the times, and a grid
    # point can then fail only on its strengths.
    base = WalkParams(1.0, 1.0, **fields["times"])
    points = []
    for gamma, kappa in itertools.product(gammas, kappas):
        try:
            points.append(dataclasses.replace(base, kappa=kappa, gamma=gamma))
        except ConfigurationError as exc:
            point = f"{_number_text(kappa)}, {_number_text(gamma)}"
            raise ConfigurationError(f"kappa_values/gamma_values: point ({point}): {exc}") from exc
    _reject_unknown(data, SWEEP_KEYS, "sweep")
    return SweepGrid(base=_walk_config(fields, base), points=tuple(points))


def parse_hopfield(data: dict) -> HopfieldConfig:
    """Retrieval scenario: needs n, stored patterns and input patterns."""
    n = _field_n(data)
    options = ("threshold_sense", "order", "max_sweeps", "seed")
    cfg = HopfieldConfig(
        n=n,
        stored=_field_patterns(data, "stored", n),
        inputs=_field_patterns(data, "inputs", n),
        out=_field_out(data),
        **{key: data[key] for key in options if key in data},
    )
    check_options(cfg.threshold_sense, cfg.order, cfg.max_sweeps, cfg.seed)
    # run_async takes any seed >= 0; a config's seed is an unsigned 64-bit integer.
    if cfg.seed > 2**64 - 1:
        raise ConfigurationError(f"seed: must be <= {2**64 - 1}, got {cfg.seed}")
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
