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
    vertex_index,
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
    "evolve_batch",
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
    if len(pattern) != n:
        raise ConfigurationError(f"pattern {pattern!r} does not have length {n}")
    return basis_density(vertex_index(pattern), 1 << n)


def _health(m) -> tuple[np.ndarray, np.ndarray]:
    """Trace drift and smallest eigenvalue of each matrix in a (B, dim, dim) stack.

    The eigenvalue is that of the Hermitian part. It is NaN for a matrix
    with a non-finite entry, which eigvalsh cannot take; a NaN fails
    every threshold comparison.
    """
    drift = np.abs(np.trace(m, axis1=1, axis2=2).real - 1.0)
    smallest = np.full(m.shape[0], np.nan)
    finite = np.isfinite(m).all(axis=(1, 2))
    if finite.any():
        ok = m[finite]
        herm = 0.5 * (ok + ok.conj().swapaxes(1, 2))
        smallest[finite] = np.linalg.eigvalsh(herm).min(axis=1)
    return drift, smallest


def validate_density(rho) -> np.ndarray:
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
    (drift,), (smallest,) = _health(m[None])
    if not drift <= TRACE_TOL:
        raise ContractViolationError(f"density matrix trace drifts by {drift:.3g}")
    if not smallest >= POSITIVITY_FLOOR:
        raise ContractViolationError(
            f"density matrix has eigenvalue {smallest:.3g} below the floor"
        )
    return 0.5 * (m + m.conj().T)


def populations(rho) -> np.ndarray:
    """Diagonal of the density matrix as a clean probability vector.

    Negative numerical dust (magnitude below 1e-12) is clamped away and
    the vector renormalized; on a valid state the adjustment is < 1e-9.
    A (B, dim, dim) stack gives one vector per matrix.
    """
    m = np.asarray(rho, dtype=np.complex128)
    p = np.real(np.diagonal(m, axis1=-2, axis2=-1)).copy()
    p[np.abs(p) < POPULATION_DUST] = 0.0
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
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
    matmul suffices, and the result is exactly Hermitian again. All three
    may also be (B, dim, dim) stacks, one generator per state.
    """
    dim = rho.shape[-1]
    a = h_eff @ rho
    out = -1j * (a - a.conj().swapaxes(-1, -2))
    # Every (dim + 1)-th entry of the flattened, freshly allocated ``out``
    # is a diagonal entry: a strided view, cheaper than fancy indexing.
    diagonal = out.reshape(*out.shape[:-2], dim * dim)[..., :: dim + 1]
    diagonal += (feed @ np.diagonal(rho, axis1=-2, axis2=-1)[..., None])[..., 0]
    return out


def _integrate(rho, h_eff, feed, dt: float, steps_per_sample: int, n_samples: int):
    """Step a (B, dim, dim) stack of states with RK4, health-checking every sample.

    Slice b evolves under ``h_eff[b]`` and ``feed[b]``. A slice that fails
    the health check at a sample is dropped from the stack, so the others
    go on unchanged. Returns the sample times and per slice either its
    sampled ``Trajectory`` fields or its ``IntegrationDiagnosticsError``.
    """
    batch, dim = rho.shape[0], rho.shape[-1]
    sample_dt = steps_per_sample * dt
    times = np.arange(n_samples + 1) * sample_dt
    pops = np.empty((batch, n_samples + 1, dim))
    trace_drift = np.empty((batch, n_samples + 1))
    min_eig = np.empty((batch, n_samples + 1))
    pur = np.empty((batch, n_samples + 1))
    herm = np.empty((batch, n_samples + 1))
    errors = {}
    live = np.arange(batch)

    def rhs(y):
        # Reads h_eff and feed when called, so it follows the dropped slices.
        return _rhs(y, h_eff, feed)

    for k in range(n_samples + 1):
        if k > 0:
            # An overflowing state is reported by the health check below as
            # a diagnostics error; numpy's warnings about it would only
            # precede that message.
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(steps_per_sample):
                    rho = rk4_step(rhs, rho, dt)
        drift, smallest = _health(rho)
        ok = (drift <= TRACE_ABORT) & (smallest >= EIGENVALUE_ABORT)
        if not ok.all():
            for i in np.flatnonzero(~ok):
                errors[live[i]] = IntegrationDiagnosticsError(times[k], dt, drift[i], smallest[i])
            rho, h_eff, feed, live = rho[ok], h_eff[ok], feed[ok], live[ok]
            drift, smallest = drift[ok], smallest[ok]
            if live.size == 0:
                break
        trace_drift[live, k] = drift
        min_eig[live, k] = smallest
        pur[live, k] = [purity(r) for r in rho]
        herm[live, k] = hermiticity_residual(rho)
        pops[live, k] = populations(rho)

    return times, [
        errors[b] if b in errors
        else dict(
            populations=pops[b], trace_drift=trace_drift[b], min_eigenvalue=min_eig[b],
            purity=pur[b], hermiticity=herm[b],
        )
        for b in range(batch)
    ]


def evolve_batch(
    rho0,
    spec: HypercubeSpec,
    params_seq,
    rule: str = STRICT,
) -> list:
    """Integrate the walk from ``rho0`` once per params, all as one stack.

    Returns, in the order of ``params_seq``, each run's ``Trajectory`` or
    the ``IntegrationDiagnosticsError`` that ended it; a failed run does
    not stop the others, and each outcome equals that of a lone
    ``evolve``. The runs must share ``dt``, ``sample_every`` and
    ``t_max``, so that they share one step count.
    """
    params_seq = list(params_seq)
    # validate_density returns the Hermitian part, which _rhs needs and keeps.
    rho = validate_density(rho0)
    dim = spec.dim
    if rho.shape[0] != dim:
        raise ConfigurationError(
            f"density matrix dimension {rho.shape[0]} does not match 2^{spec.n}"
        )
    if not params_seq:
        return []
    first = params_seq[0]
    if any(
        (p.dt, p.sample_every, p.t_max) != (first.dt, first.sample_every, first.t_max)
        for p in params_seq
    ):
        raise ConfigurationError("a batch of runs must share dt, sample_every and t_max")

    h = build_hamiltonian(spec, rule)
    gain, out_degree = jump_gain(build_jump_operators(spec, rule), dim)
    batch = len(params_seq)
    h_eff = np.empty((batch, dim, dim), dtype=np.complex128)
    feed = np.empty((batch, dim, dim), dtype=np.complex128)
    for b, p in enumerate(params_seq):
        # Rescale to 1/gamma time units; gamma = 0 runs in plain time.
        if p.gamma > 0:
            kappa_eff, gamma_eff = p.kappa / p.gamma, 1.0
        else:
            kappa_eff, gamma_eff = p.kappa, 0.0
        h_eff[b] = kappa_eff * h - (0.5j * gamma_eff) * np.diag(out_degree)
        feed[b] = gamma_eff * gain

    steps_per_sample = max(1, int(round(first.sample_every / first.dt)))
    n_samples = int(np.ceil(first.t_max / (steps_per_sample * first.dt) - 1e-12))
    times, outcomes = _integrate(
        np.repeat(rho[None], batch, axis=0), h_eff, feed, first.dt, steps_per_sample, n_samples
    )
    return [
        outcome if isinstance(outcome, IntegrationDiagnosticsError)
        else Trajectory(times=times.copy(), **outcome, sink_indices=tuple(spec.sinks), params=p)
        for outcome, p in zip(outcomes, params_seq)
    ]


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
    diagnostics error prescribing a smaller dt. This is the batch of one
    of ``evolve_batch``.
    """
    (outcome,) = evolve_batch(rho0, spec, [params], rule)
    if isinstance(outcome, IntegrationDiagnosticsError):
        raise outcome
    return outcome


def mixing_time(traj: Trajectory) -> float:
    """Settling time of the sampled populations, in 1/gamma units.

    Returns the earliest sample time from which every later sample stays
    within ``MIXING_EPS`` (sup norm) of the final one, provided the sinks
    have actually absorbed ``SINK_THRESHOLD`` of the population by the end of
    the run; otherwise 0, the sentinel for a walk that failed to converge
    to the memory states.
    """
    final = traj.populations[-1]
    absorbed = float(final[list(traj.sink_indices)].sum())
    if absorbed < SINK_THRESHOLD:
        return 0.0
    deviation = np.max(np.abs(traj.populations - final), axis=1)
    bad = np.nonzero(deviation >= MIXING_EPS)[0]
    first_settled = 0 if bad.size == 0 else int(bad[-1]) + 1
    return float(traj.times[first_settled])
