"""Classical Markov-chain walks on weighted graphs.

Discrete-step evolution under a row-stochastic matrix, stationary
distributions by power iteration, and a continuous-time generator
evolution that serves as the classical oracle for the dissipative-only
limit of the quantum walk.
"""

from __future__ import annotations

import numpy as np

from .constants import POWER_ITERATION_CAP, POWER_ITERATION_TOL, ROW_SUM_TOL
from .errors import ConfigurationError, ContractViolationError, ConvergenceError
from .hypercube import jump_gain
from .numerics import expm

__all__ = [
    "as_probability_vector",
    "as_stochastic_matrix",
    "as_rate_matrix",
    "step",
    "stationary",
    "rate_matrix_from_stochastic",
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


def as_stochastic_matrix(m, tol: float = ROW_SUM_TOL) -> np.ndarray:
    """Validate a row-stochastic matrix: entries in [0, 1], rows sum to 1."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"stochastic matrix must be square, got {a.shape}")
    if np.any(a < -tol) or np.any(a > 1.0 + tol):
        raise ConfigurationError("stochastic matrix entries must lie in [0, 1]")
    rows = a.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > tol):
        worst = int(np.argmax(np.abs(rows - 1.0)))
        raise ConfigurationError(f"row {worst} sums to {rows[worst]!r}, not 1")
    return a


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


def step(m, pi) -> np.ndarray:
    """One discrete step: ``pi'_j = sum_i m_ij pi_i``."""
    a = as_stochastic_matrix(m)
    p = as_probability_vector(pi)
    if p.size != a.shape[0]:
        raise ConfigurationError(f"vector length {p.size} does not match {a.shape}")
    return a.T @ p


def stationary(
    m,
    tol: float = POWER_ITERATION_TOL,
    max_iterations: int = POWER_ITERATION_CAP,
) -> np.ndarray:
    """Stationary distribution by power iteration from the uniform vector.

    Requires an irreducible aperiodic chain on its support; otherwise the
    iteration fails to converge and a ConvergenceError reports the cap.
    Degenerate case: for M = I every distribution is stationary and the
    uniform starting vector is returned unchanged (the fixed point is not
    unique there).
    """
    a = as_stochastic_matrix(m)
    n = a.shape[0]
    current = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        nxt = a.T @ current
        nxt /= nxt.sum()
        if float(np.max(np.abs(nxt - current))) < tol:
            return nxt
        current = nxt
    raise ConvergenceError(
        f"power iteration did not converge within {max_iterations} steps"
    )


def rate_matrix_from_stochastic(m) -> np.ndarray:
    """Probability-conserving generator ``Q = M^T - I`` of a stochastic matrix."""
    a = as_stochastic_matrix(m)
    return a.T - np.eye(a.shape[0])


def rate_matrix_from_jumps(jumps, dim: int, rate: float = 1.0) -> np.ndarray:
    """Generator of the classical chain induced by directed jump operators.

    ``Q = rate (G - diag(out))``: each jump src -> dst contributes
    ``rate`` to ``Q[dst, src]`` and is balanced on the diagonal so
    columns sum to zero.
    """
    if rate <= 0:
        raise ConfigurationError("jump rate must be positive")
    gain, out_degree = jump_gain(jumps, dim)
    return rate * (gain - np.diag(out_degree))


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
