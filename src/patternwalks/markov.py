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
from .numerics import check_count, expm

__all__ = [
    "as_probability_vector",
    "as_rate_matrix",
    "rate_matrix_from_jumps",
    "ctmc_samples",
    "ctmc_evolve",
]


def as_probability_vector(v) -> np.ndarray:
    """Validate a distribution: finite entries in [0, 1] that sum to 1."""
    p = np.asarray(v, dtype=float).ravel()
    if p.size == 0:
        raise ConfigurationError("probability vector must be non-empty")
    if not np.isfinite(p).all():
        raise ConfigurationError("probability vector entries must be finite numbers")
    if np.any(p < -ROW_SUM_TOL) or np.any(p > 1.0 + ROW_SUM_TOL):
        raise ConfigurationError("probability vector entries must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > ROW_SUM_TOL:
        raise ConfigurationError(f"probability vector sums to {p.sum()!r}, not 1")
    return p


def as_rate_matrix(q) -> np.ndarray:
    """Validate a CTMC generator: finite, non-negative off-diagonal, zero column sums."""
    a = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"rate matrix must be square, got {a.shape}")
    if a.size == 0:
        raise ConfigurationError("rate matrix must be non-empty")
    if not np.isfinite(a).all():
        raise ConfigurationError("rate matrix entries must be finite numbers")
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < -ROW_SUM_TOL):
        raise ConfigurationError("rate matrix off-diagonal entries must be >= 0")
    cols = a.sum(axis=0)
    if np.any(np.abs(cols) > ROW_SUM_TOL * max(1.0, float(np.max(np.abs(a))))):
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


def ctmc_samples(q, pi0, delta: float, steps: int) -> np.ndarray:
    """Distributions ``expm(q k delta) pi0`` for k = 0, ..., steps, one per row.

    One propagator ``expm(q delta)`` is computed and applied sample to
    sample. After each product the distribution must still sum to 1
    within 1e-9; it is then divided by that sum unless the sum is
    exactly 1. Only when the propagator or ``pi0`` has a sign bit can a
    product be negative or -0.0: then each row is instead clipped at 0
    and divided by its clipped sum, so roundoff cannot accumulate into
    negative or unnormalized rows. Without a sign bit every product is
    +0.0 or positive and the clip could not change a bit. Each step
    writes its row of the result in place and creates no array.
    """
    a = as_rate_matrix(q)
    p = as_probability_vector(pi0)
    if p.size != a.shape[0]:
        raise ConfigurationError(f"vector length {p.size} does not match {a.shape}")
    if not delta >= 0:  # NaN fails it too
        raise ConfigurationError(f"evolution time must be >= 0, got {delta:g}")
    check_count("steps", steps, 0)
    step = expm(a * delta)
    clip = bool(np.signbit(step).any() or np.signbit(p).any())
    out = np.empty((steps + 1, p.size))
    out[0] = p
    for k in range(1, steps + 1):
        row = out[k]
        np.matmul(step, out[k - 1], out=row)
        total = float(np.add.reduce(row))
        drift = abs(total - 1.0)
        if not drift <= 1e-9:  # NaN fails it too
            raise ContractViolationError(f"generator evolution drifted by {drift:.3g}")
        if clip:
            total = _clip(row)
        if total != 1.0:  # x / 1.0 is x
            row /= total
    return out


def _clip(row: np.ndarray) -> float:
    """Clip ``row`` at 0 in place and return its new sum."""
    # np.clip(row, 0.0, None) is this ufunc call, operands in this
    # order: -0.0 becomes +0.0 and NaN propagates.
    np.maximum(row, 0.0, out=row)
    return float(np.add.reduce(row))


def ctmc_evolve(q, pi0, t: float) -> np.ndarray:
    """Continuous-time evolution ``expm(q t) pi0`` of a probability vector."""
    return ctmc_samples(q, pi0, t, 1)[-1]
