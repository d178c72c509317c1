"""Dense complex matrix helpers, a matrix exponential and fixed-step RK4.

Operator state throughout the package is a plain ``numpy.ndarray`` of
complex128; the helpers here add dimension checks, a Hermiticity
residual, a scaling-and-squaring matrix exponential and the RK4 step.
Everything is a pure function of its inputs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "hermiticity_residual",
    "rk4_step",
    "expm",
]


def _square(a) -> np.ndarray:
    """Coerce ``a`` to a square complex128 matrix (no copy when already one)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ConfigurationError(f"expected a matrix, got an array of rank {m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_residual(a):
    """Max-entry norm of ``A - A^dagger``; one per matrix of a (B, dim, dim) stack."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ConfigurationError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)


def rk4_step(f: Callable, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta update of the autonomous ``y' = f(y)``."""
    if dt <= 0:
        raise ConfigurationError("rk4_step requires dt > 0")
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The argument is scaled down to 1-norm <= 0.25, where the truncated
    series converges to working precision in well under 30 terms, then
    squared back up.
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

    result = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, 40):
        term = term @ m / k
        result = result + term
        if float(np.max(np.abs(term))) < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result
