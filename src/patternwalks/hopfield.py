"""Binary threshold network with symmetric couplings.

The classical associative-memory baseline: single-neuron updates, the
Ising-style energy they descend, Hebbian storage and asynchronous
retrieval runs. Network states are 0/1 bit arrays; the serialized form is
an ASCII bit string with neuron 1 first, e.g. ``"101"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "STANDARD",
    "AS_PRINTED",
    "SENSES",
    "CYCLIC",
    "RANDOM",
    "ORDERS",
    "parse_pattern",
    "format_pattern",
    "validate_weights",
    "zero_thresholds",
    "update_neuron",
    "energy",
    "hebbian_store",
    "RetrievalRun",
    "run_async",
]

# Threshold sense: "standard" fires when the summed input reaches the
# threshold; "as-printed" is the literal inverted variant (fire when the
# input is <= the threshold), kept for fidelity experiments.
STANDARD = "standard"
AS_PRINTED = "as-printed"
SENSES = (STANDARD, AS_PRINTED)

CYCLIC = "cyclic"
RANDOM = "random"
ORDERS = (CYCLIC, RANDOM)


def parse_pattern(text: str) -> np.ndarray:
    """Parse an ASCII bit string into a 0/1 array (neuron 1 first)."""
    if not isinstance(text, str) or len(text) == 0:
        raise ConfigurationError(f"pattern must be a non-empty bit string, got {text!r}")
    if any(ch not in "01" for ch in text):
        raise ConfigurationError(f"pattern may contain only '0' and '1', got {text!r}")
    return np.array([1 if ch == "1" else 0 for ch in text], dtype=np.int8)


def format_pattern(bits) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def validate_weights(w) -> np.ndarray:
    """Check symmetry, zero diagonal and the [-1, 1] bound; return float64."""
    m = np.asarray(w, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"weight matrix must be square, got shape {m.shape}")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
        raise ConfigurationError("weight matrix must be symmetric")
    if np.any(np.abs(np.diag(m)) > 0.0):
        raise ConfigurationError("weight matrix must have a zero diagonal")
    if np.any(np.abs(m) > 1.0 + 1e-12):
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


def update_neuron(state, w, theta, i: int, sense: str = STANDARD) -> int:
    """Updated value of neuron ``i`` given the current network state.

    With the standard sense the neuron fires (returns 1) exactly when the
    weighted input from the other neurons reaches its threshold; ties at
    the threshold fire. The as-printed sense inverts the comparison.
    """
    w = validate_weights(w)
    n = w.shape[0]
    s = _check_state(state, n)
    theta = np.asarray(theta, dtype=float)
    if theta.size != n:
        raise ConfigurationError(f"threshold length {theta.size} does not match {n}")
    if not 0 <= i < n:
        raise ConfigurationError(f"neuron index {i} out of range for {n} neurons")
    if sense not in SENSES:
        raise ConfigurationError(f"unknown threshold sense {sense!r}")
    local = float(w[:, i] @ s)
    if sense == STANDARD:
        return 1 if local >= theta[i] else 0
    return 1 if local <= theta[i] else 0


def energy(state, w, theta) -> float:
    """Ising-style energy ``-1/2 sum_ij w_ij x_i x_j + sum_i theta_i x_i``."""
    w = validate_weights(w)
    s = _check_state(state, w.shape[0]).astype(float)
    theta = np.asarray(theta, dtype=float)
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

    ``order`` is either a cyclic schedule (0..N-1 repeating) or a fresh
    seeded random permutation per sweep. The run stops after the first
    full sweep that changes nothing, or after ``max_sweeps``.
    """
    w = validate_weights(w)
    n = w.shape[0]
    current = _check_state(state, n).copy()
    if order not in ORDERS:
        raise ConfigurationError(f"unknown update order {order!r}")
    if max_sweeps < 1:
        raise ConfigurationError("max_sweeps must be at least 1")
    rng = np.random.default_rng(seed)

    states = [current.copy()]
    flips = 0
    for sweep in range(max_sweeps):
        schedule = rng.permutation(n) if order == RANDOM else range(n)
        changed = 0
        for i in schedule:
            new_value = update_neuron(current, w, theta, int(i), sense)
            if new_value != current[i]:
                current[i] = new_value
                changed += 1
        states.append(current.copy())
        flips += changed
        if changed == 0:
            return RetrievalRun(states, True, sweep + 1, flips)
    return RetrievalRun(states, False, max_sweeps, flips)
