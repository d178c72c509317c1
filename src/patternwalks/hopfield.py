"""Binary threshold network with symmetric couplings.

The classical associative-memory baseline: single-neuron updates, the
Ising-style energy they descend, Hebbian storage and asynchronous
retrieval runs. Network states are 0/1 bit arrays; the serialized form is
an ASCII bit string with neuron 1 first, e.g. ``"101"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import WEIGHT_TOL
from .errors import ConfigurationError
from .hypercube import vertex_index
from .numerics import check_count

__all__ = [
    "STANDARD",
    "AS_PRINTED",
    "SENSES",
    "CYCLIC",
    "RANDOM",
    "ORDERS",
    "parse_pattern",
    "check_options",
    "format_pattern",
    "validate_weights",
    "zero_thresholds",
    "energy",
    "hebbian_store",
    "RetrievalRun",
    "run_async",
]

# Threshold sense: "standard" fires when the summed input reaches the
# threshold, ties included; "as-printed" is the literal inverted variant
# (fire when the input is <= the threshold), kept for fidelity experiments.
STANDARD = "standard"
AS_PRINTED = "as-printed"
SENSES = (STANDARD, AS_PRINTED)

CYCLIC = "cyclic"
RANDOM = "random"
ORDERS = (CYCLIC, RANDOM)


def parse_pattern(text: str) -> np.ndarray:
    """Parse an ASCII bit string into a 0/1 array (neuron 1 first)."""
    vertex_index(text)
    return np.array([1 if ch == "1" else 0 for ch in text], dtype=np.int8)


def format_pattern(bits) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def _floats(name: str, value) -> np.ndarray:
    """``value`` as a float64 array, or a ConfigurationError naming ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must hold real numbers: {exc}") from None


def validate_weights(w) -> np.ndarray:
    """Check finiteness, symmetry, zero diagonal and the [-1, 1] bound; return float64."""
    m = _floats("weight matrix", w)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"weight matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ConfigurationError("weights must be finite numbers")
    if not np.allclose(m, m.T, rtol=0.0, atol=WEIGHT_TOL):
        raise ConfigurationError("weight matrix must be symmetric")
    if np.any(np.abs(np.diag(m)) > 0.0):
        raise ConfigurationError("weight matrix must have a zero diagonal")
    if np.any(np.abs(m) > 1.0 + WEIGHT_TOL):
        raise ConfigurationError("weights must lie in [-1, 1]")
    return m


def zero_thresholds(n: int) -> np.ndarray:
    return np.zeros(int(n), dtype=float)


def _check_state(state, n: int) -> np.ndarray:
    s = np.asarray(state)
    if s.ndim != 1 or s.size != n:
        raise ConfigurationError(f"state length {s.size} does not match {n} neurons")
    if np.any((s != 0) & (s != 1)):
        raise ConfigurationError("state entries must be exactly 0 or 1")
    return s.astype(np.int8)


def check_options(sense, order, max_sweeps, seed) -> None:
    """Check the options of ``run_async``; each message starts with its config key."""
    if sense not in SENSES:
        raise ConfigurationError(
            f"threshold_sense: unknown threshold sense {sense!r}, expected one of {SENSES}"
        )
    if order not in ORDERS:
        raise ConfigurationError(f"order: unknown update order {order!r}, expected one of {ORDERS}")
    check_count("max_sweeps", max_sweeps, 1)
    check_count("seed", seed, 0)


def _check_theta(theta, n: int) -> np.ndarray:
    theta = _floats("threshold", theta)
    if theta.shape != (n,):
        raise ConfigurationError(f"threshold shape {theta.shape} does not match {n} neurons")
    return theta


def energy(state, w, theta) -> float:
    """Ising-style energy ``-1/2 sum_ij w_ij x_i x_j + sum_i theta_i x_i``."""
    w = validate_weights(w)
    s = _check_state(state, w.shape[0]).astype(float)
    theta = _check_theta(theta, w.shape[0])
    return float(-0.5 * s @ w @ s + theta @ s)


def hebbian_store(patterns) -> np.ndarray:
    """Hebbian weights for a list of patterns.

    ``w_ij = (1/P) sum_mu (2 x_i - 1)(2 x_j - 1)`` with a zero diagonal,
    clamped to [-1, 1] so every downstream weight precondition holds.
    """
    if len(patterns) == 0:
        raise ConfigurationError("hebbian_store requires at least one pattern")
    rows = [np.asarray(p).ravel() for p in patterns]
    n = rows[0].size
    if any(r.size != n for r in rows):
        raise ConfigurationError("all stored patterns must have the same length")
    w = np.zeros((n, n), dtype=float)
    for r in rows:
        spins = 2.0 * r.astype(float) - 1.0
        w += np.outer(spins, spins)
    w /= len(rows)
    np.fill_diagonal(w, 0.0)
    return np.clip(w, -1.0, 1.0)


@dataclass
class RetrievalRun:
    """States visited by an asynchronous run, one snapshot per sweep.

    ``states[0]`` is the input; ``converged`` is False when the sweep cap
    was exhausted before a fixed point (reported here, never an error).
    """

    states: list
    converged: bool
    sweeps: int
    flips: int

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def run_async(
    state,
    w,
    theta,
    order: str = CYCLIC,
    max_sweeps: int = 64,
    seed: int = 0,
    sense: str = STANDARD,
) -> RetrievalRun:
    """Asynchronous retrieval: single-neuron updates until a fixed point.

    A neuron fires by the rule of ``sense`` (see SENSES). ``order`` is
    either a cyclic schedule (0..N-1 repeating) or a fresh seeded random
    permutation per sweep. The run stops after the first full sweep that
    changes nothing, or after ``max_sweeps``. Every argument is checked
    once, before the first sweep.
    """
    w = validate_weights(w)
    n = w.shape[0]
    current = _check_state(state, n)
    theta = _check_theta(theta, n)
    check_options(sense, order, max_sweeps, seed)
    rng = np.random.default_rng(seed)

    states = [current.copy()]
    flips = 0
    for sweep in range(max_sweeps):
        schedule = rng.permutation(n) if order == RANDOM else range(n)
        changed = 0
        for i in schedule:
            local = float(w[:, i] @ current)
            new_value = int(local >= theta[i] if sense == STANDARD else local <= theta[i])
            if new_value != current[i]:
                current[i] = new_value
                changed += 1
        states.append(current.copy())
        flips += changed
        if changed == 0:
            return RetrievalRun(states, True, sweep + 1, flips)
    return RetrievalRun(states, False, max_sweeps, flips)
