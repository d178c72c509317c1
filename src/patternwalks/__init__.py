"""Quantum and classical walks on neural firing-pattern hypercubes.

The package builds dissipative quantum walks whose vertices are the
firing patterns of a binary neural network: memory patterns become
absorbing sinks, a master equation mixes coherent hopping with directed
incoherent jumps, and the walk retrieves the stored pattern nearest to
the initial one. The classical pieces (threshold network, a
continuous-time Markov chain, the neuron-coin unitarity check) ship
alongside as baselines and oracles.
"""

from .constants import DEFAULT_DT, DEFAULT_SAMPLE_EVERY, DEFAULT_T_MAX
from .errors import (
    ConfigurationError,
    ContractViolationError,
    IntegrationDiagnosticsError,
)
from .hypercube import (
    HypercubeSpec,
    JumpOperator,
    build_hamiltonian,
    build_jump_operators,
    make_spec,
    vertex_index,
)
from .lindblad import (
    Trajectory,
    WalkParams,
    basis_density,
    density_from_pattern,
    evolve,
    mixing_time,
    populations,
    purity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigurationError",
    "ContractViolationError",
    "IntegrationDiagnosticsError",
    "HypercubeSpec",
    "JumpOperator",
    "make_spec",
    "vertex_index",
    "build_hamiltonian",
    "build_jump_operators",
    "WalkParams",
    "Trajectory",
    "basis_density",
    "density_from_pattern",
    "evolve",
    "mixing_time",
    "populations",
    "purity",
    "DEFAULT_DT",
    "DEFAULT_T_MAX",
    "DEFAULT_SAMPLE_EVERY",
]
