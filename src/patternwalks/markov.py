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

    One propagator ``P = expm(q delta)`` is computed, and the rows are
    filled by doubling: rows ``[done, done + w)`` are rows
    ``[done - w, done)`` times ``P^w`` in one product, and the width w
    goes 1, 2, 4, ... by squaring ``P^w`` while it stays within the
    chain's dimension d, then stays there. A product then holds at most
    d^3 multiply-adds, the size of one squaring, which keeps it on one
    BLAS thread. 400 steps at d = 64 take 12 products and 6 squarings.

    Every row of a product must still sum to 1 within 1e-9, else the
    drift of the first row that fails is reported; each row is then
    divided by its sum. Only when the propagator or ``pi0`` has a sign
    bit can a product be negative or -0.0: then the rows are instead
    clipped at 0 and divided by their clipped sums, so roundoff cannot
    accumulate into negative or unnormalized rows. Without a sign bit no
    power of ``P`` has one, every product is +0.0 or positive, and the
    clip could not change a bit. Each product writes its rows of the
    result in place.
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
    # The rows are distributions, so a block of them is multiplied by the
    # transposed power.
    power, width, done = step.T, 1, 1
    while done <= steps:
        if 2 * width <= min(done, p.size):
            power, width = power @ power, 2 * width
        rows = min(width, steps + 1 - done)
        block = out[done:done + rows]
        np.matmul(out[done - width:done - width + rows], power, out=block)
        totals = np.add.reduce(block, axis=1)
        drift = np.abs(totals - 1.0)
        failed = ~(drift <= 1e-9)  # NaN fails it too
        if failed.any():
            raise ContractViolationError(f"generator evolution drifted by {drift[failed.argmax()]:.3g}")
        if clip:
            totals = _clip(block)
        block /= totals[:, None]
        done += rows
    return out


def _clip(block: np.ndarray) -> np.ndarray:
    """Clip ``block`` at 0 in place and return the sums of its rows."""
    # np.clip(block, 0.0, None) is this ufunc call, operands in this
    # order: -0.0 becomes +0.0 and NaN propagates.
    np.maximum(block, 0.0, out=block)
    return np.add.reduce(block, axis=1)


def ctmc_evolve(q, pi0, t: float) -> np.ndarray:
    """Continuous-time evolution ``expm(q t) pi0`` of a probability vector."""
    return ctmc_samples(q, pi0, t, 1)[-1]
