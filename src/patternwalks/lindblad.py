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
1992; Plenio and Knight, RMP 70, 101, 1998). H is real, and a sink has
no coherent edge and no outgoing jump, so its rows and columns of K are
zero.

The integrator requires an initial state with no coherence that
involves a sink, and then keeps every sink row and column at exactly 0.0
off the diagonal. The state stays block diagonal: its non-sink block
and the sink populations. The per-sample positivity check therefore
takes eigenvalues of the non-sink block only, and compares them with
the sink populations.

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
    index_pattern,
    jump_gain,
    vertex_index,
)
from .numerics import adjoint_into, hermiticity_residual, rk4_step

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


def _split(dim: int, sinks) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the non-sink vertices and of the sinks."""
    live = np.ones(dim, dtype=bool)
    live[list(sinks)] = False
    return np.flatnonzero(live), np.flatnonzero(~live)


def _health(m, live, sinks) -> tuple[np.ndarray, np.ndarray]:
    """Trace drift and smallest eigenvalue of each matrix in a (B, dim, dim) stack.

    The eigenvalue is that of the Hermitian part, whose sink rows and
    columns (index array ``sinks``) must be zero off the diagonal. The
    Hermitian part is then block diagonal, and its smallest eigenvalue is
    the smaller of the non-sink block's (index array ``live``) and the
    smallest sink population. It is NaN for a matrix with a non-finite
    entry, which eigvalsh cannot take; a NaN fails every threshold
    comparison.
    """
    drift = np.abs(np.trace(m, axis1=1, axis2=2).real - 1.0)
    smallest = np.full(m.shape[0], np.nan)
    finite = np.isfinite(m).all(axis=(1, 2))
    if finite.any():
        ok = m if finite.all() else m[finite]
        block = ok[:, live[:, None], live]
        herm = adjoint_into(block, np.empty_like(block))
        herm += block
        herm *= 0.5
        sink_populations = np.diagonal(ok, axis1=1, axis2=2).real[:, sinks]
        smallest[finite] = np.minimum(
            np.linalg.eigvalsh(herm).min(axis=1), sink_populations.min(axis=1, initial=np.inf)
        )
    return drift, smallest


def validate_density(rho, sinks=()) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix.

    Returns the Hermitian part ``(rho + rho^dag) / 2``, which equals an
    exactly Hermitian ``rho`` bit for bit. The Hermitian part may have no
    coherence that involves a vertex in ``sinks``; a ConfigurationError
    names the first sink that has one. Positivity is then read from the
    non-sink block and the sink populations.
    """
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"density matrix must be square, got {m.shape}")
    residual = hermiticity_residual(m)
    if residual > HERMITICITY_TOL:
        raise ContractViolationError(
            f"density matrix not Hermitian: residual {residual:.3g}"
        )
    herm = 0.5 * (m + m.conj().T)
    live, sinks = _split(m.shape[0], sinks)
    cross = herm[sinks]
    cross[np.arange(sinks.size), sinks] = 0.0
    touched = sinks[np.any(cross != 0.0, axis=1)]
    if touched.size:
        pattern = index_pattern(int(touched[0]), m.shape[0].bit_length() - 1)
        raise ConfigurationError(
            f"density matrix has a coherence involving sink {pattern}; "
            "the walk needs every sink row and column zero off the diagonal"
        )
    (drift,), (smallest,) = _health(herm[None], live, sinks)
    if not drift <= TRACE_TOL:
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


def _rhs(x, c, coherent, decay, gain, gamma, out, a):
    """Write ``c`` times the generator applied to a Hermitian ``x`` into ``out``.

    The generator is ``L(x) = -i (K x - x K^dag) + diag(F diag(x))`` with
    ``K = kappa H - (i/2) gamma diag(out)`` and ``F = gamma G``. For
    Hermitian ``x``, ``-i c x K^dag = (k x)^dag`` with ``k = -i c K``, so
    ``c L(x) = k x + (k x)^dag + c gamma diag(G diag(x))`` is exactly
    Hermitian again. H is real, so ``K x`` is one real product of
    ``coherent`` = kappa H with the float view of ``x``, plus ``x``
    scaled row by row by ``decay``, the decay rate -(i/2) gamma times
    each row's out-degree, repeated in every column. ``gain`` is G. ``x`` may also be a
    (B, dim, dim) stack that shares ``gain``, with one ``coherent`` and
    ``decay`` per slice and ``gamma`` shaped (B, 1, 1). ``a`` is a
    contiguous scratch array shaped like ``x``; ``out``, contiguous and
    shaped like ``x``, may be ``x`` itself. Returns ``out``.
    """
    dim = x.shape[-1]
    np.matmul(coherent, x.view(np.float64), out=a.view(np.float64))
    # Read x before out, which may be x, is written. The feed is one
    # product per slice, so a slice's bits do not depend on the stack.
    fed = np.matmul(gain, np.diagonal(x, axis1=-2, axis2=-1).real[..., None])
    fed *= c * gamma
    np.multiply(x, decay, out=out)
    a += out
    a *= -1j * c
    adjoint_into(a, out)
    out += a
    # Every (dim + 1)-th entry of the flattened, contiguous ``out`` is a
    # diagonal entry: a strided view, cheaper than fancy indexing.
    diagonal = out.reshape(*out.shape[:-2], dim * dim)[..., :: dim + 1]
    diagonal += fed[..., 0]
    return out


def _integrate(rho, h, gain, out_degree, strengths, sinks, dt: float, steps_per_sample: int, n_samples: int):
    """Step a (B, dim, dim) stack of states with RK4, health-checking every sample.

    Slice b evolves under ``K = kappa H - (i/2) gamma diag(out_degree)``
    and ``F = gamma G`` with ``(kappa, gamma) = strengths[b]``; the real
    H = ``h`` and G = ``gain`` are shared by the stack. The rows and
    columns of ``h``, the entries of ``out_degree`` and the columns of
    ``gain`` at the ``sinks`` must be zero, and so must every coherence
    of ``rho`` that involves a sink; the steps then keep those
    coherences at 0.0, and the health check reads eigenvalues of the
    non-sink block. A slice that fails the health check at a sample is
    dropped from the stack, so the others go on unchanged. Returns the
    sample times and per slice either its sampled ``Trajectory`` fields
    or its ``IntegrationDiagnosticsError``.

    The steps work on a copy of ``rho`` and allocate no state-sized
    array: K is kept as its real part kappa H and its decay diagonal
    spread over each row, and the stages work in two scratch stacks, all
    compacted with the states when a slice drops.
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
    block, sinks = _split(dim, sinks)
    kappa, gamma = np.asarray(strengths, dtype=float).reshape(batch, 2).T[..., None, None]
    coherent = kappa * h
    # The decay is spread to the state's shape: numpy buffers a
    # state-sized copy for a ufunc whose operand broadcasts.
    decay = np.repeat((-0.5j * gamma) * out_degree[:, None], dim, axis=-1)
    rho = rho.copy()
    product, work = np.empty_like(rho), np.empty_like(rho)

    def apply(x, c, out):
        # Reads the generator and the scratch stacks when called, so it
        # follows the dropped slices.
        return _rhs(x, c, coherent, decay, gain, gamma, work if out is None else out, product)

    for k in range(n_samples + 1):
        if k > 0:
            # An overflowing state is reported by the health check below as
            # a diagnostics error; numpy's warnings about it would only
            # precede that message.
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(steps_per_sample):
                    rho = rk4_step(apply, rho, dt)
        drift, smallest = _health(rho, block, sinks)
        ok = (drift <= TRACE_ABORT) & (smallest >= EIGENVALUE_ABORT)
        if not ok.all():
            for i in np.flatnonzero(~ok):
                errors[live[i]] = IntegrationDiagnosticsError(times[k], dt, drift[i], smallest[i])
            rho, live = rho[ok], live[ok]
            coherent, decay, gamma = coherent[ok], decay[ok], gamma[ok]
            # The scratch stacks' contents are dead here; their leading
            # slices are contiguous stacks of the new size.
            product, work = product[: live.size], work[: live.size]
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
    """Integrate the walk from ``rho0`` for each params, all as one stack.

    Returns, in the order of ``params_seq``, each run's ``Trajectory`` or
    the ``IntegrationDiagnosticsError`` that ended it; a failed run does
    not stop the others, and each outcome equals that of a lone
    ``evolve``. The runs must share ``dt``, ``sample_every`` and
    ``t_max``, so that they share one step count. ``rho0`` may have no
    coherence that involves a sink (a ConfigurationError names the sink).
    """
    params_seq = list(params_seq)
    dim = spec.dim
    if np.shape(rho0) != (dim, dim):
        raise ConfigurationError(
            f"density matrix shape {np.shape(rho0)} does not match 2^{spec.n}"
        )
    # validate_density returns the Hermitian part, which _rhs needs and keeps.
    rho = validate_density(rho0, spec.sinks)
    if not params_seq:
        return []
    first = params_seq[0]
    if any(
        (p.dt, p.sample_every, p.t_max) != (first.dt, first.sample_every, first.t_max)
        for p in params_seq
    ):
        raise ConfigurationError("a batch of runs must share dt, sample_every and t_max")

    # Rescale to 1/gamma time units; gamma = 0 runs in plain time. A run
    # depends on its params only through these strengths, so each distinct
    # pair is integrated once and its outcome goes to every params with it.
    strengths = [(p.kappa / p.gamma, 1.0) if p.gamma > 0 else (p.kappa, 0.0) for p in params_seq]
    distinct = list(dict.fromkeys(strengths))
    slot = {pair: b for b, pair in enumerate(distinct)}

    h = build_hamiltonian(spec, rule)
    gain, out_degree = jump_gain(build_jump_operators(spec, rule), dim)
    steps_per_sample = max(1, int(round(first.sample_every / first.dt)))
    n_samples = max(1, int(np.ceil(first.t_max / (steps_per_sample * first.dt) - 1e-12)))
    times, outcomes = _integrate(
        np.broadcast_to(rho, (len(distinct), dim, dim)), h, gain, out_degree, distinct,
        spec.sinks, first.dt, steps_per_sample, n_samples,
    )
    results, shared = [], set()
    for p, pair in zip(params_seq, strengths):
        outcome = outcomes[slot[pair]]
        if isinstance(outcome, IntegrationDiagnosticsError):
            results.append(outcome)
            continue
        if pair in shared:  # a repeat gets copies, so no two trajectories share an array
            outcome = {name: values.copy() for name, values in outcome.items()}
        shared.add(pair)
        results.append(
            Trajectory(times=times.copy(), **outcome, sink_indices=tuple(spec.sinks), params=p)
        )
    return results


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
    diagnostics error prescribing a smaller dt. ``rho0`` may have no
    coherence that involves a sink (a ConfigurationError names the sink).
    This is the batch of one of ``evolve_batch``.
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
