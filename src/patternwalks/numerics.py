"""Dense matrix helpers and a matrix exponential.

Operators are plain ``numpy.ndarray``s, float64 or complex128; the
helpers here add dimension checks, a Hermiticity residual and a
scaling-and-squaring matrix exponential, each a pure function of its
inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = ["hermiticity_residual", "expm"]


def _square(a) -> np.ndarray:
    """Coerce ``a`` to a square float64 or complex128 matrix (no copy when already one)."""
    m = np.asarray(a)
    m = m.astype(np.result_type(m, np.float64), copy=False)
    if m.ndim != 2:
        raise ConfigurationError(f"expected a matrix, got an array of rank {m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_residual(a):
    """Max-entry norm of ``A - A^dagger``; one per matrix of a (B, dim, dim) stack."""
    m = np.asarray(a)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ConfigurationError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    # Copy (m may be the caller's): a ufunc would buffer the transposed view.
    diff = m.swapaxes(-1, -2).copy()
    np.subtract(m, np.conjugate(diff, out=diff), out=diff)
    return np.max(np.abs(diff), axis=(-2, -1), initial=0.0)


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The argument is scaled down to 1-norm <= 0.25, where the truncated
    series converges to working precision in well under 30 terms, then
    squared back up. A real argument gives a float64 result, a complex
    one a complex128 result.
    """
    m = _square(a)
    n = m.shape[0]
    if n == 0:
        return m.copy()

    norm = float(np.max(np.sum(np.abs(m), axis=0)))
    squarings = 0
    if norm > 0.25:
        squarings = int(np.ceil(np.log2(norm / 0.25)))
        m = m / (2.0**squarings)

    result = np.eye(n, dtype=m.dtype)
    term = np.eye(n, dtype=m.dtype)
    for k in range(1, 40):
        term = term @ m / k
        result = result + term
        if float(np.max(np.abs(term))) < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result
