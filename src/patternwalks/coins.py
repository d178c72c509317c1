"""Two-state coin algebra: the neuron coin and the biased Hadamard coin.

Coins are plain 2x2 complex arrays; nonunitary coins are representable on
purpose, because unitarity is the checked property: the coin built from a
neuron's firing probability is unitary only at bias 1/2, while the biased
Hadamard coin is unitary for every bias.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import UNITARITY_TOL
from .errors import ConfigurationError

__all__ = [
    "biased_coin",
    "neuron_coin",
    "UnitarityReport",
    "is_unitary",
]


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"coin bias {p!r} outside [0, 1]")
    return p


def biased_coin(p: float) -> np.ndarray:
    """Biased Hadamard-style coin: |0> -> sqrt(p)|0> + sqrt(1-p)|1>,
    |1> -> sqrt(1-p)|0> - sqrt(p)|1>. Unitary for every p in [0, 1]."""
    p = _check_probability(p)
    a = math.sqrt(p)
    b = math.sqrt(1.0 - p)
    return np.array([[a, b], [b, -a]], dtype=np.complex128)


def neuron_coin(p: float) -> np.ndarray:
    """Coin built from a neuron's firing probability.

    Maps |0> -> sqrt(1-p)|0> + sqrt(p)|1> and |1> -> sqrt(1-p)|0> - sqrt(p)|1>.
    Both images share the same |0> weight, so the columns are orthogonal
    only at p = 1/2: ``C^dag C - I`` has off-diagonal 1 - 2p.
    """
    p = _check_probability(p)
    a = math.sqrt(1.0 - p)
    b = math.sqrt(p)
    return np.array([[a, a], [b, -b]], dtype=np.complex128)


class UnitarityReport(NamedTuple):
    unitary: bool
    deviation: float


def is_unitary(coin, tol: float = UNITARITY_TOL) -> UnitarityReport:
    """Whether ``C^dag C`` is the identity, with the max-entry deviation."""
    c = np.asarray(coin, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ConfigurationError(f"coin must be a square matrix, got {c.shape}")
    gram = c.conj().T @ c
    deviation = float(np.max(np.abs(gram - np.eye(c.shape[0]))))
    return UnitarityReport(deviation < tol, deviation)
