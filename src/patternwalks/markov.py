"""The classical continuous-time Markov chain over the walk's jump graph.

The chain's generator comes from the same jump set as the quantum walk's
dissipator, and its evolution is the exact classical solution of the
walk's dissipative-only limit.
"""

from __future__ import annotations

import numpy as np

from .constants import ROW_SUM_TOL
from .errors import ConfigurationError, ContractViolationError
from .hypercube import jump_gain
from .numerics import expm

__all__ = [
    "as_probability_vector",
    "as_rate_matrix",
    "rate_matrix_from_jumps",
    "ctmc_evolve",
]


def as_probability_vector(v, tol: float = ROW_SUM_TOL) -> np.ndarray:
    p = np.asarray(v, dtype=float).ravel()
    if p.size == 0:
        raise ConfigurationError("probability vector must be non-empty")
    if np.any(p < -tol) or np.any(p > 1.0 + tol):
        raise ConfigurationError("probability vector entries must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > tol:
        raise ConfigurationError(f"probability vector sums to {p.sum()!r}, not 1")
    return p


def as_rate_matrix(q, tol: float = ROW_SUM_TOL) -> np.ndarray:
    """Validate a CTMC generator: non-negative off-diagonal, zero column sums."""
    a = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"rate matrix must be square, got {a.shape}")
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < -tol):
        raise ConfigurationError("rate matrix off-diagonal entries must be >= 0")
    cols = a.sum(axis=0)
    if np.any(np.abs(cols) > tol * max(1.0, float(np.max(np.abs(a))))):
        worst = int(np.argmax(np.abs(cols)))
        raise ConfigurationError(f"column {worst} sums to {cols[worst]!r}, not 0")
    return a


def rate_matrix_from_jumps(jumps, dim: int) -> np.ndarray:
    """Generator of the classical chain induced by directed jump operators.

    ``Q = G - diag(out)``: each jump src -> dst contributes unit rate to
    ``Q[dst, src]`` and is balanced on the diagonal so columns sum to
    zero.
    """
    gain, out_degree = jump_gain(jumps, dim)
    return gain - np.diag(out_degree)


def ctmc_evolve(q, pi0, t: float) -> np.ndarray:
    """Continuous-time evolution ``expm(q t) pi0`` of a probability vector."""
    a = as_rate_matrix(q)
    p = as_probability_vector(pi0)
    if p.size != a.shape[0]:
        raise ConfigurationError(f"vector length {p.size} does not match {a.shape}")
    if t < 0:
        raise ConfigurationError("evolution time must be >= 0")
    out = np.real(expm(a * t) @ p)
    drift = abs(float(out.sum()) - 1.0)
    if drift > 1e-9:
        raise ContractViolationError(f"generator evolution drifted by {drift:.3g}")
    out = np.clip(out, 0.0, None)
    return out / out.sum()
