"""Dense matrix helpers, the Taylor degree rule and a matrix exponential.

Operators are plain ``numpy.ndarray``s, float64 or complex128; the
helpers here add dimension checks, a Hermiticity residual, the Taylor
degree rule that ``expm`` and the walk's step share, and ``expm``, each
a pure function of its inputs. ``finite_real`` is the package's one
check of a real scalar, used by ``WalkParams`` and ``make_spec``, and
``check_count`` its one check of an integer count.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .constants import TAYLOR_THETA
from .errors import ConfigurationError

__all__ = ["finite_real", "check_count", "hermiticity_residual", "taylor_degree", "expm"]


def finite_real(name: str, value) -> float:
    """``value`` as a float if it is a finite real other than a bool, else a ConfigurationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return number


def check_count(name: str, value, minimum: int) -> None:
    """A ConfigurationError unless ``value`` is an integer >= ``minimum`` other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name}: must be an integer >= {minimum}, got {value!r}")


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
    # The copy is the one temporary: it is conjugated only when complex, the
    # absolute value is taken in place, and of a complex copy read off its
    # real part.
    diff = m.swapaxes(-1, -2).copy()
    if diff.dtype.kind == "c":
        np.conjugate(diff, out=diff)
    np.subtract(m, diff, out=diff)
    return np.max(np.abs(diff, out=diff).real, axis=(-2, -1), initial=0.0)


def taylor_degree(norm: float, budget: float = np.inf) -> int:
    """Smallest tabled degree m with ``TAYLOR_THETA[m] >= norm`` if m < ``budget``, else 0."""
    for m, theta in TAYLOR_THETA.items():
        if theta >= norm:
            return m if m < budget else 0
    return 0


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The argument is halved to 1-norm <= ``TAYLOR_THETA[18]``, its series
    is summed to the ``taylor_degree`` of that norm, and the sum squared
    back up. A real argument gives a float64 result, a complex one a
    complex128 result; a non-finite 1-norm is a ConfigurationError.
    """
    m = _square(a)
    n = m.shape[0]
    if n == 0:
        return m.copy()

    norm = float(np.max(np.sum(np.abs(m), axis=0)))
    if not np.isfinite(norm):
        raise ConfigurationError(f"matrix exponential needs a finite argument, got 1-norm {norm}")
    squarings = 0
    if norm > TAYLOR_THETA[18]:
        squarings = int(np.ceil(np.log2(norm / TAYLOR_THETA[18])))
        m = m / (2.0**squarings)

    result = np.eye(n, dtype=m.dtype)
    term = np.eye(n, dtype=m.dtype)
    for k in range(1, taylor_degree(norm / 2.0**squarings) + 1):
        term = term @ m / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result
