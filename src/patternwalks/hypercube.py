"""Firing-pattern hypercube with memory sinks.

Vertices are the 2^N firing patterns; edges join patterns at Hamming
distance one, plus a self-loop on every vertex. Sink vertices (the
memorized patterns) are cut out of the adjacency Hamiltonian entirely and
are instead fed by directed jump operators that always point strictly
closer to the sink set. A ``HypercubeSpec`` holds the whole graph: n, the
sinks, the edge weights and the rule for equidistant edges, each checked
once by ``make_spec``. The jump set is built once, with bit operations
over all vertices, and the Hamiltonian, the operator list and the gain
arrays of both generators are read off it. ``vertex_index`` is the
package's one check of a bit-string pattern.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .numerics import finite_real

__all__ = [
    "STRICT",
    "LTE",
    "RULES",
    "JumpOperator",
    "HypercubeSpec",
    "make_spec",
    "vertex_index",
    "index_pattern",
    "vertex_hamming",
    "popcount",
    "sink_distances",
    "build_hamiltonian",
    "build_jump_operators",
    "jump_gain",
]

# Jump assignment rule for edges whose endpoints are equidistant from the
# sink set: "strict" emits nothing (the default), "lte" emits operators in
# both directions and exists only for comparison runs.
STRICT = "strict"
LTE = "lte"
RULES = (STRICT, LTE)


@dataclass(frozen=True)
class JumpOperator:
    """Directed incoherent transition |dst><src| between adjacent vertices."""

    src: int
    dst: int


@dataclass(frozen=True)
class HypercubeSpec:
    """Hypercube walk ingredients: neuron count, sink vertices, edge weights, jump rule.

    ``edge_weights`` holds explicit overrides as (low, high, weight)
    triples over unordered vertex pairs at Hamming distance <= 1; every
    other edge weighs 1. ``rule`` (one of RULES) sets the jumps, and with
    them the coherence, of an edge whose ends are equidistant from the
    sinks. Build instances through :func:`make_spec`, which checks them all.
    """

    n: int
    sinks: tuple[int, ...]
    edge_weights: tuple[tuple[int, int, float], ...] = ()
    rule: str = STRICT

    @property
    def dim(self) -> int:
        return 1 << self.n


def vertex_index(pattern: str, n: int | None = None, key: str = "pattern") -> int:
    """Vertex index of a bit string, first bit most significant ("101" -> 5).

    Anything but a non-empty string of '0' and '1', of length ``n`` when
    given, is a ConfigurationError starting with ``key``.
    """
    if (
        not isinstance(pattern, str) or not pattern or not set(pattern) <= {"0", "1"}
        or n is not None and len(pattern) != n
    ):
        length = "" if n is None else f" of length {n}"
        raise ConfigurationError(f"{key}: invalid pattern {pattern!r}, expected a bit string{length}")
    return int(pattern, 2)


def index_pattern(v: int, n: int) -> str:
    """Bit-string pattern of a vertex index (inverse of vertex_index)."""
    if not 0 <= v < (1 << n):
        raise ConfigurationError(f"vertex {v} out of range for n = {n}")
    return format(v, f"0{n}b")


def vertex_hamming(i: int, j: int) -> int:
    return bin(i ^ j).count("1")


def _spec_vertex(p, n: int, key: str) -> int:
    """Vertex index of a vertex given as an integer index or as a length-n bit string."""
    if isinstance(p, str):
        return vertex_index(p, n, key)
    if not isinstance(p, numbers.Integral) or isinstance(p, bool):
        raise ConfigurationError(
            f"{key}: expected a vertex index or a bit string of length {n}, got {p!r}"
        )
    if not 0 <= p < 1 << n:
        raise ConfigurationError(f"{key}: vertex {p} out of range for n = {n}")
    return int(p)


def make_spec(n: int, sink_patterns, edge_weight_overrides=None, rule: str = STRICT) -> HypercubeSpec:
    """Validate and build a HypercubeSpec.

    ``sink_patterns`` may mix bit strings and vertex indices; overrides
    are (pattern, pattern, weight) or (index, index, weight) triples.
    ``rule`` is the spec's equidistant rule, one of RULES. Each error
    message starts with the config key of the faulty argument.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigurationError(f"n: must be a positive integer, got {n!r}")
    if rule not in RULES:
        raise ConfigurationError(f"equidistant_rule: must be one of {RULES}, got {rule!r}")
    dim = 1 << n

    sinks = [_spec_vertex(p, n, "sinks") for p in sink_patterns]
    if len(sinks) == 0:
        raise ConfigurationError("sinks: at least one sink is required")
    if len(set(sinks)) != len(sinks):
        raise ConfigurationError("sinks: patterns must be distinct")
    if len(sinks) >= dim:
        raise ConfigurationError("sinks: at least one vertex must stay a non-sink")

    overrides, seen = [], set()
    for entry in edge_weight_overrides or ():
        try:
            u, v, w = entry
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"edge_weights: expected (vertex, vertex, weight), got {entry!r}"
            ) from None
        iu = _spec_vertex(u, n, "edge_weights")
        iv = _spec_vertex(v, n, "edge_weights")
        if vertex_hamming(iu, iv) > 1:
            raise ConfigurationError(
                f"edge_weights: {entry!r} joins vertices farther than one bit flip"
            )
        w = finite_real("edge_weights: weight", w)
        if not w > 0:
            raise ConfigurationError(f"edge_weights: weight must be positive, got {w!r}")
        lo, hi = min(iu, iv), max(iu, iv)
        if (lo, hi) in seen:
            pair = f"{index_pattern(lo, n)!r}, {index_pattern(hi, n)!r}"
            raise ConfigurationError(f"edge_weights: the pair {pair} is given twice")
        seen.add((lo, hi))
        overrides.append((lo, hi, w))

    return HypercubeSpec(n=n, sinks=tuple(sorted(sinks)), edge_weights=tuple(overrides), rule=rule)


def popcount(v, n: int) -> np.ndarray:
    """Set bits among the low ``n`` bits of each entry of ``v`` (np.bitwise_count needs numpy >= 2)."""
    return sum(((v >> b) & 1 for b in range(n)), np.zeros_like(v))


def sink_distances(spec: HypercubeSpec) -> np.ndarray:
    """Hamming distance from every vertex to its nearest sink, indexed by vertex."""
    diff = np.arange(spec.dim)[:, None] ^ np.asarray(spec.sinks)[None, :]
    return popcount(diff, spec.n).min(axis=1)


def _jump_mask(spec: HypercubeSpec) -> np.ndarray:
    """Boolean (dim, dim) matrix, True at [src, dst] for each directed jump.

    Every distance-one edge points from the endpoint farther from the
    sink set to the nearer one. An equidistant edge gets no jump under
    the spec's strict rule and a jump each way under "lte"; no jump
    leaves a sink under either rule.
    """
    d = sink_distances(spec)
    src = np.arange(spec.dim)[:, None]
    dst = src ^ (1 << np.arange(spec.n))  # (dim, n) neighbours
    if spec.rule == STRICT:
        emits = d[dst] < d[src]
    else:
        emits = (d[dst] <= d[src]) & (d[src] > 0)
    mask = np.zeros((spec.dim, spec.dim), dtype=bool)
    mask[src, dst] = emits
    return mask


def build_hamiltonian(spec: HypercubeSpec) -> np.ndarray:
    """Sink-isolated weighted adjacency matrix, self-loops included.

    ``H_ij = a_ij`` for vertices one bit flip apart when neither is a
    sink; sink rows and columns are identically zero and every non-sink
    vertex keeps its self-loop. The matrix is real and symmetric.

    Under the default strict rule an edge whose endpoints are equidistant
    from the sink set is removed from the coherent part too, mirroring
    the jump assignment: such an edge sits on the watershed between
    basins of attraction, and keeping it lets coherence tunnel across and
    feed the wrong memory (measured: the far sink captures 0.46 of the
    walker in the three-neuron two-sink scenario at kappa = gamma = 1).
    The relaxed "lte" rule keeps the full adjacency for comparison runs.
    Both follow from the jump structure: an edge between non-sinks stays
    coherent exactly when it carries a jump in some direction.
    """
    jumps = _jump_mask(spec)
    live = np.ones(spec.dim, dtype=bool)
    live[list(spec.sinks)] = False
    edges = (jumps | jumps.T | np.eye(spec.dim, dtype=bool)) & live[:, None] & live[None, :]
    weights = np.ones((spec.dim, spec.dim))
    for lo, hi, w in spec.edge_weights:
        weights[lo, hi] = weights[hi, lo] = w
    return np.where(edges, weights, 0.0)


def build_jump_operators(spec: HypercubeSpec) -> list[JumpOperator]:
    """Directed jump operators over the hypercube edges, ordered by (src, dst).

    For every distance-one edge {i, j} the operator points from the
    vertex farther from the sink set to the nearer one; under the default
    strict rule an equidistant edge gets no operator at all. Self-loops
    never carry operators, and no operator leaves a sink.
    """
    src, dst = np.nonzero(_jump_mask(spec))
    return [JumpOperator(src=int(s), dst=int(t)) for s, t in zip(src, dst)]


def jump_gain(jumps, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Gain matrix ``G[dst, src]`` and out-degree vector of a jump set.

    These two arrays are all either generator needs: the classical rate
    matrix is ``G - diag(out)``, and the quantum walk feeds ``G`` applied
    to the populations while ``-i out / 2`` is the decay diagonal of its
    effective Hamiltonian.
    """
    src = np.array([op.src for op in jumps], dtype=np.intp)
    dst = np.array([op.dst for op in jumps], dtype=np.intp)
    if np.any((src < 0) | (src >= dim) | (dst < 0) | (dst >= dim)):
        raise ConfigurationError(f"jump set reaches outside dimension {dim}")
    gain = np.zeros((dim, dim))
    np.add.at(gain, (dst, src), 1.0)
    return gain, np.bincount(src, minlength=dim).astype(float)
