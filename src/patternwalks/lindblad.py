"""Master-equation evolution of the walk's density matrix.

The generator combines a coherent commutator term (strength kappa) with a
dissipator built from the hypercube's directed jump operators (strength
gamma). Every jump operator is a basis transition |dst><src|, so the
dissipator splits into a no-jump part and a population feed, and the
whole generator reads

    drho/dt = -i (K rho - rho K^dag) + diag(F diag(rho))
    K = kappa H - (i/2) gamma diag(out),    F = gamma G

with G the jump gain matrix (G[dst, src] = 1 per jump) and out the
out-degree of each vertex (Dalibard, Castin and Molmer, PRL 68, 580,
1992; Plenio and Knight, RMP 70, 101, 1998).

All times are expressed in 1/gamma units: for gamma > 0 the equation is
integrated in the rescaled time tau = gamma t, where the dissipator has
unit strength and the commutator carries kappa/gamma. For gamma = 0 the
plain coherent equation is integrated and times are unscaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    DEFAULT_DT,
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_T_MAX,
    EIGENVALUE_ABORT,
    HERMITICITY_TOL,
    MAX_DT,
    MIXING_EPS,
    POPULATION_DUST,
    POSITIVITY_FLOOR,
    SINK_THRESHOLD,
    TRACE_ABORT,
    TRACE_TOL,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    IntegrationDiagnosticsError,
)
from .hypercube import (
    STRICT,
    HypercubeSpec,
    build_hamiltonian,
    build_jump_operators,
    jump_gain,
)
from .numerics import hermiticity_residual, rk4_step

__all__ = [
    "WalkParams",
    "Trajectory",
    "basis_density",
    "density_from_pattern",
    "validate_density",
    "populations",
    "purity",
    "evolve",
    "mixing_time",
]


@dataclass(frozen=True)
class WalkParams:
    """Strengths and integration horizon of one walk run.

    kappa weighs the coherent commutator, gamma the dissipator; they may
    not both vanish. Times (t_max, dt, sample_every) are in 1/gamma units.
    """

    kappa: float
    gamma: float
    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT
    sample_every: float = DEFAULT_SAMPLE_EVERY

    def __post_init__(self):
        for name in ("kappa", "gamma", "t_max", "dt", "sample_every"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a finite number")
        if self.kappa < 0 or self.gamma < 0:
            raise ConfigurationError("kappa and gamma must be >= 0")
        if self.kappa == 0 and self.gamma == 0:
            raise ConfigurationError("kappa and gamma may not both be zero")
        if not self.t_max > 0:
            raise ConfigurationError("t_max must be positive")
        if not 0 < self.dt <= MAX_DT:
            raise ConfigurationError(f"dt must lie in (0, {MAX_DT}]")
        if not self.sample_every >= self.dt:
            raise ConfigurationError("sample_every must be at least dt")


@dataclass
class Trajectory:
    """Sampled populations and per-sample health diagnostics of one run."""

    times: np.ndarray
    populations: np.ndarray  # (samples, dim)
    trace_drift: np.ndarray
    min_eigenvalue: np.ndarray
    purity: np.ndarray
    hermiticity: np.ndarray
    sink_indices: tuple[int, ...]
    params: WalkParams

    def sink_population(self) -> np.ndarray:
        """Total population sitting in the sinks at each sample."""
        return self.populations[:, list(self.sink_indices)].sum(axis=1)


def basis_density(v: int, dim: int) -> np.ndarray:
    """Pure density matrix |v><v|."""
    if not 0 <= v < dim:
        raise ConfigurationError(f"basis index {v} out of range for dimension {dim}")
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[v, v] = 1.0
    return rho


def density_from_pattern(pattern: str, n: int) -> np.ndarray:
    """Pure density matrix sitting on one firing pattern."""
    from .hypercube import vertex_index

    if len(pattern) != n:
        raise ConfigurationError(f"pattern {pattern!r} does not have length {n}")
    return basis_density(vertex_index(pattern), 1 << n)


def _health(m) -> tuple[np.ndarray, float, float]:
    """Hermitian part of ``m``, its trace drift and its smallest eigenvalue.

    The eigenvalue is NaN when ``m`` has a non-finite entry, which
    eigvalsh cannot take; a NaN fails every threshold comparison.
    """
    herm = 0.5 * (m + m.conj().T)
    drift = abs(float(np.trace(m).real) - 1.0)
    if not np.isfinite(m).all():
        return herm, drift, float("nan")
    return herm, drift, float(np.min(np.linalg.eigvalsh(herm)))


def validate_density(rho, trace_tol: float = TRACE_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix.

    Returns the Hermitian part ``(rho + rho^dag) / 2``, which equals an
    exactly Hermitian ``rho`` bit for bit.
    """
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"density matrix must be square, got {m.shape}")
    residual = hermiticity_residual(m)
    if residual > HERMITICITY_TOL:
        raise ContractViolationError(
            f"density matrix not Hermitian: residual {residual:.3g}"
        )
    herm, drift, smallest = _health(m)
    if not drift <= trace_tol:
        raise ContractViolationError(f"density matrix trace drifts by {drift:.3g}")
    if not smallest >= POSITIVITY_FLOOR:
        raise ContractViolationError(
            f"density matrix has eigenvalue {smallest:.3g} below the floor"
        )
    return herm


def populations(rho) -> np.ndarray:
    """Diagonal of the density matrix as a clean probability vector.

    Negative numerical dust (magnitude below 1e-12) is clamped away and
    the vector renormalized; on a valid state the adjustment is < 1e-9.
    """
    m = np.asarray(rho, dtype=np.complex128)
    p = np.real(np.diag(m)).copy()
    p[np.abs(p) < POPULATION_DUST] = 0.0
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if total <= 0:
        raise ContractViolationError("density matrix has no population")
    return p / total


def purity(rho) -> float:
    """trace(rho^2); 1 for pure states, 1/dim for the maximally mixed one."""
    m = np.asarray(rho, dtype=np.complex128)
    return float(np.real(np.vdot(m, m)))


def _rhs(rho, h_eff, feed):
    """``-i (K rho - rho K^dag) + diag(F diag(rho))`` for a Hermitian ``rho``.

    ``h_eff`` is the effective Hamiltonian K and ``feed`` the population
    feed F. For Hermitian ``rho``, ``rho K^dag = (K rho)^dag``, so one
    matmul suffices, and the result is exactly Hermitian again.
    """
    a = h_eff @ rho
    out = -1j * (a - a.conj().T)
    idx = np.arange(rho.shape[0])
    out[idx, idx] += feed @ np.diag(rho)
    return out


def evolve(
    rho0,
    spec: HypercubeSpec,
    params: WalkParams,
    rule: str = STRICT,
) -> Trajectory:
    """Integrate the walk with fixed-step RK4 and sample its populations.

    The sampling stride is rounded to a whole number of integrator steps
    and the run extends to the first sample at or past ``t_max``. Every
    sampled state is health-checked; a non-finite entry, a trace drift
    beyond 1e-6 or an eigenvalue below -1e-6 aborts the run with a
    diagnostics error prescribing a smaller dt.
    """
    # validate_density returns the Hermitian part, which _rhs needs and keeps.
    rho = validate_density(rho0)
    dim = spec.dim
    if rho.shape[0] != dim:
        raise ConfigurationError(
            f"density matrix dimension {rho.shape[0]} does not match 2^{spec.n}"
        )
    h = build_hamiltonian(spec, rule)
    gain, out_degree = jump_gain(build_jump_operators(spec, rule), dim)

    # Rescale to 1/gamma time units; gamma = 0 runs in plain time.
    if params.gamma > 0:
        kappa_eff = params.kappa / params.gamma
        gamma_eff = 1.0
    else:
        kappa_eff = params.kappa
        gamma_eff = 0.0

    h_eff = kappa_eff * h - (0.5j * gamma_eff) * np.diag(out_degree)
    feed = gamma_eff * gain

    def rhs(y):
        return _rhs(y, h_eff, feed)

    steps_per_sample = max(1, int(round(params.sample_every / params.dt)))
    sample_dt = steps_per_sample * params.dt
    n_samples = int(np.ceil(params.t_max / sample_dt - 1e-12))

    times = np.empty(n_samples + 1)
    pops = np.empty((n_samples + 1, dim))
    trace_drift = np.empty(n_samples + 1)
    min_eig = np.empty(n_samples + 1)
    pur = np.empty(n_samples + 1)
    herm = np.empty(n_samples + 1)

    for k in range(n_samples + 1):
        if k > 0:
            # An overflowing state is reported by the health check below as
            # a diagnostics error; numpy's warnings about it would only
            # precede that message.
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(steps_per_sample):
                    rho = rk4_step(rhs, rho, params.dt)
        times[k] = k * sample_dt
        _, drift, smallest = _health(rho)
        if not (drift <= TRACE_ABORT and smallest >= EIGENVALUE_ABORT):
            raise IntegrationDiagnosticsError(times[k], params.dt, drift, smallest)
        trace_drift[k] = drift
        min_eig[k] = smallest
        pur[k] = purity(rho)
        herm[k] = hermiticity_residual(rho)
        pops[k] = populations(rho)

    return Trajectory(
        times=times,
        populations=pops,
        trace_drift=trace_drift,
        min_eigenvalue=min_eig,
        purity=pur,
        hermiticity=herm,
        sink_indices=tuple(spec.sinks),
        params=params,
    )


def mixing_time(
    traj: Trajectory,
    eps: float = MIXING_EPS,
    sink_threshold: float = SINK_THRESHOLD,
) -> float:
    """Settling time of the sampled populations, in 1/gamma units.

    Returns the earliest sample time from which every later sample stays
    within ``eps`` (sup norm) of the final one, provided the sinks have
    actually absorbed ``sink_threshold`` of the population by the end of
    the run; otherwise 0, the sentinel for a walk that failed to converge
    to the memory states.
    """
    final = traj.populations[-1]
    absorbed = float(final[list(traj.sink_indices)].sum())
    if absorbed < sink_threshold:
        return 0.0
    deviation = np.max(np.abs(traj.populations - final), axis=1)
    bad = np.nonzero(deviation >= eps)[0]
    first_settled = 0 if bad.size == 0 else int(bad[-1]) + 1
    return float(traj.times[first_settled])
