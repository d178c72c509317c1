"""Master-equation evolution of the walk's density matrix.

A coherent term (strength kappa) and a dissipator of the hypercube's
directed jumps |dst><src| (strength gamma) give, with G[dst, src] = 1
per jump and out the out-degree of each vertex (Dalibard, Castin and
Molmer, PRL 68, 580, 1992),

    drho/dt = M' rho + (M' rho)^dag + gamma diag(G diag(rho)),
    M' = -i kappa H - (gamma/2) diag(out).

The hypercube is bipartite: a coherent edge flips one bit, and so the
parity of the popcount |v|. The integrator steps R = Q^dag rho Q with
Q = diag(i^|v|), where Q^dag H Q = D + iK: K is real antisymmetric (+-H
on the edges) and D is the self-loop diagonal. R obeys the equation
above with M = kappa K - i kappa D - (gamma/2) diag(out). D's constant
part on the non-sink vertices commutes with the state and is dropped,
so D is zero unless non-sink self-loops differ. M is then real, and a
real R (every basis pattern) stays real symmetric float64; otherwise R
is complex128 on the same code. A stage is one product P = M R, the sum
P + P^dag, Hermitian to the bit, and the feed. R has rho's diagonal,
spectrum and purity, so each sample reads them off R. A sink has no
coherent edge and no outgoing jump, so its rows and columns of M are
zero. The integrator requires an initial state with no coherence that
involves a sink and keeps each such coherence at exactly 0.0, so the
positivity check reads the non-sink block and the sink populations.
The equation is linear with a constant generator L, so each sample is
exp(s L) applied to the one before, for the sample stride s. One frozen
record, ``_Generator``, holds L for a stack of strength pairs: M per
pair, the gamma stack, G, and the non-sink and sink index arrays. Its
builder ``_generator`` takes H, G, the out-degrees and the sinks, and
no state; it is the only code that frames H and forms M. The record
bounds ||L||_1 <= 2 ||M||_1 + gamma ||G||_1 per pair. ``evolve_batch``
builds it once per call, then frames the state, the one step that reads
it. ``rk4_step`` evaluates the degree-m Taylor polynomial of exp(hL) in
place, in nested form, with m stages; m = 4 is RK4. A run takes one
step h = s per sample, of the smallest degree m that the bound makes
exact to double precision (the rule of ``numerics.taylor_degree``,
which ``expm`` shares), if m is below the 4 s/dt stages of RK4 at dt.
Otherwise it takes s/dt RK4 steps of h = dt.

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
    MAX_SAMPLES,
    MAX_STEPS,
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
    HypercubeSpec,
    build_hamiltonian,
    build_jump_operators,
    index_pattern,
    jump_gain,
    popcount,
    vertex_index,
)
from .numerics import finite_real, hermiticity_residual, taylor_degree

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
    not both vanish, and for gamma > 0 kappa/gamma must be finite too.
    Times (t_max, dt, sample_every) are in 1/gamma units. Every field is
    stored as a float.
    """

    kappa: float
    gamma: float
    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT
    sample_every: float = DEFAULT_SAMPLE_EVERY

    def __post_init__(self):
        for name, value in vars(self).items():
            object.__setattr__(self, name, finite_real(name, value))
        for name, value in (("kappa", self.kappa), ("gamma", self.gamma)):
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.kappa == 0 and self.gamma == 0:
            raise ConfigurationError("kappa/gamma: may not both be zero")
        # The walk runs on the ratio (see evolve_batch), which may overflow.
        if self.gamma > 0 and not math.isfinite(self.kappa / self.gamma):
            raise ConfigurationError(
                f"kappa/gamma: the ratio {self.kappa:g}/{self.gamma:g} is beyond the float range"
            )
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
    """Pure density matrix sitting on one firing pattern, a bit string of length n."""
    return basis_density(vertex_index(pattern, n), 1 << n)


def _split(dim: int, sinks) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the non-sink vertices and of the sinks."""
    live = np.ones(dim, dtype=bool)
    live[list(sinks)] = False
    return np.flatnonzero(live), np.flatnonzero(~live)


def _health(m, live, sinks) -> tuple[np.ndarray, np.ndarray]:
    """Trace drift and smallest eigenvalue of each matrix in a (B, dim, dim) stack.

    Each matrix must be Hermitian, with its sink rows and columns (index
    array ``sinks``) zero off the diagonal. It is then block diagonal,
    and its smallest eigenvalue is the smaller of the non-sink block's
    (index array ``live``) and the smallest sink population. It is NaN
    for a matrix with a non-finite entry, which eigvalsh cannot take; a
    NaN fails every threshold comparison.
    """
    drift = np.abs(np.trace(m, axis1=1, axis2=2).real - 1.0)
    smallest = np.full(m.shape[0], np.nan)
    finite = np.isfinite(m).all(axis=(1, 2))
    if finite.any():
        ok = m if finite.all() else m[finite]
        # Each slice's block is contiguous, as a lone matrix's is.
        block = np.take(ok[:, live], live, axis=2)
        sink_populations = np.diagonal(ok, axis1=1, axis2=2).real[:, sinks]
        smallest[finite] = np.minimum(
            np.linalg.eigvalsh(block).min(axis=1), sink_populations.min(axis=1, initial=np.inf)
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
    if not live.size:
        raise ConfigurationError("sinks: at least one vertex must stay a non-sink")
    cross = herm[sinks]
    cross[np.arange(sinks.size), sinks] = 0.0
    touched = sinks[np.any(cross != 0.0, axis=1)]
    if touched.size:
        pattern = index_pattern(int(touched[0]), m.shape[0].bit_length() - 1)
        raise ConfigurationError(
            f"density matrix has a coherence involving sink {pattern}; "
            "the walk needs every sink row and column zero off the diagonal"
        )
    # A real state takes the real eigensolver, as its walk's samples do.
    (drift,), (smallest,) = _health((herm if herm.imag.any() else herm.real)[None], live, sinks)
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
    p = np.diagonal(np.asarray(rho), axis1=-2, axis2=-1).real.astype(np.float64)
    p[np.abs(p) < POPULATION_DUST] = 0.0
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ContractViolationError("density matrix has no population")
    return p / total


def purity(rho) -> float:
    """trace(rho^2); 1 for pure states, 1/dim for the maximally mixed one."""
    return float(np.real(np.vdot(rho, rho)))


def _parity_phases(dim: int) -> np.ndarray:
    """``phases[u, v] = i^(|v| - |u|)``, exactly 1, i, -1 or -i: ``Q^dag X Q = X * phases``."""
    ones = popcount(np.arange(dim), dim.bit_length())
    return np.array([1, 1j, -1, -1j])[(ones - ones[:, None]) % 4]


@dataclass(frozen=True)
class _Generator:
    """The walk's generator L in the parity frame, one slice per strength pair.

    ``m`` is the (B, dim, dim) stack of M, float64 unless D is nonzero,
    and ``gamma`` the (B, 1, 1) dissipator strengths; the pairs share G =
    ``gain``. ``live`` and ``sinks`` index the non-sink vertices and the
    sinks. The record holds no state.
    """

    m: np.ndarray
    gamma: np.ndarray
    gain: np.ndarray
    live: np.ndarray
    sinks: np.ndarray

    def bound(self) -> np.ndarray:
        """Per slice, ``2 ||M||_1 + gamma ||G||_1``, which bounds ||L||_1 on the walk's states.

        ``||M R||_1`` and ``||R M^dag||_1`` are at most ``||M||_1 ||R||_1``
        each, and the feed at most ``gamma ||G||_1 ||R||_1``, in the
        entrywise 1-norm of R.
        """
        return 2 * np.abs(self.m).sum(axis=-2).max(axis=-1) + self.gamma[:, 0, 0] * np.abs(self.gain).sum(axis=0).max()


def _generator(h, gain, out_degree, sinks, pairs) -> _Generator:
    """The walk's generator from H, G, the out-degrees and the sinks, one slice per ``(kappa, gamma)``.

    ``M = kappa K - i kappa D - (gamma/2) diag(out)`` from ``Q^dag H Q =
    D + iK``, with D on the non-sink vertices taken relative to the first
    one; M is complex128 only where that leaves D nonzero.
    """
    live, sinks = _split(h.shape[-1], sinks)
    kappa, gamma = np.array(pairs, dtype=float).T[..., None, None]
    framed = h * _parity_phases(h.shape[-1])
    d = framed.real
    d[live, live] -= d[live[0], live[0]]
    m = kappa * framed.imag - gamma * np.diag(0.5 * out_degree)
    if d.any():
        m = m - 1j * kappa * d
    return _Generator(m, gamma, gain, live, sinks)


def _stage(r, m, feed, gain, out, product):
    """Write ``c L(r) = c M r + (c M r)^dag + diag(c gamma G diag r)`` into ``out``; return it.

    ``m`` is ``c M`` and ``feed`` is ``c gamma``, per slice of a (B, dim,
    dim) stack ``r``, which shares ``gain`` = G. The scratch ``product``
    and ``out`` are contiguous and shaped like ``r``; ``out`` may be ``r``.
    """
    dim = r.shape[-1]
    np.matmul(m, r, out=product)
    # Read r before out, which may be r, is written. The feed is one
    # product per slice, so a slice's bits do not depend on the stack.
    fed = np.matmul(gain, np.diagonal(r, axis1=-2, axis2=-1).real[..., None])
    fed *= feed
    # A ufunc reading the transposed view would buffer a state-sized copy.
    np.copyto(out, product.swapaxes(-1, -2))
    if np.iscomplexobj(out):
        np.conjugate(out, out=out)
    out += product
    # Every (dim + 1)-th entry of the flattened, contiguous ``out`` is a
    # diagonal entry: a strided view, cheaper than fancy indexing.
    diagonal = out.reshape(*out.shape[:-2], dim * dim)[..., :: dim + 1]
    diagonal += fed[..., 0]
    return out


def rk4_step(r, stages, gain, work, product):
    """Advance the (B, dim, dim) stack ``r`` in place by one Taylor step; return ``r``.

    Slice b takes the degree-m_b Taylor polynomial of exp(h L) in nested
    form, ``r + h L(r + h/2 L(... (r + h/m_b L(r))))``. ``stages[i] = (c M,
    c gamma)`` for c = h/m_0, ..., h/2, h (m_0 the largest degree), each a
    stack over the leading slices whose degree is at least h/c. ``work``
    starts as ``r``, and a stage sets its slices of it to ``r + c L(work)``,
    so a slice whose polynomial starts late starts from its own state.
    The scratch ``work`` and ``product`` are contiguous and shaped like
    ``r``. For a constant generator every m-stage explicit Runge-Kutta
    method of order m is this polynomial, so m = 4, with c = dt/4, dt/3,
    dt/2 and dt, is one RK4 step.
    """
    np.copyto(work, r)
    for m, feed in stages:
        w = work[: len(m)]
        _stage(w, m, feed, gain, w, product[: len(m)])
        w += r[: len(m)]
    np.copyto(r, work)
    return r


def _taylor_stages(m, gamma, h, degrees) -> list:
    """``rk4_step``'s stages for a (B, dim, dim) ``M``, (B, 1, 1) ``gamma`` and step ``h``.

    ``degrees`` gives slice b's degree and must not increase with b.
    """
    degrees = np.asarray(degrees)
    stages = []
    for j in range(degrees[0], 0, -1):
        c, count = h / j, np.count_nonzero(degrees >= j)
        stages.append((c * m[:count], c * gamma[:count]))
    return stages


def _integrate(r, stages, gen: _Generator, steps: int, times, dt: float):
    """Step a (B, dim, dim) stack of framed states in place, health-checking every sample.

    Each sample after ``times[0]`` is ``steps`` calls of ``rk4_step`` with
    ``stages``, which hold each slice's ``c M`` and ``c gamma``; G, the
    sinks and the non-sink block come from the generator record ``gen``.
    M's rows and columns, G's columns and each coherence of the Hermitian
    ``r`` with a sink are zero at the sinks; the health check then reads
    eigenvalues of the non-sink block. A slice that fails it at a sample
    is dropped, and the others go on unchanged. Returns per slice its
    ``Trajectory`` fields or its ``IntegrationDiagnosticsError``, which
    reports ``dt``.

    The steps allocate no state-sized array: the stages and two scratch
    stacks are made once, and compacted with the states when a slice
    drops.
    """
    batch, dim = r.shape[0], r.shape[-1]
    pops = np.empty((batch, times.size, dim))
    trace_drift = np.empty((batch, times.size))
    min_eig = np.empty((batch, times.size))
    pur = np.empty((batch, times.size))
    herm = np.empty((batch, times.size))
    errors = {}
    live = np.arange(batch)
    product, work = np.empty_like(r), np.empty_like(r)

    for k in range(times.size):
        if k > 0:
            # An overflowing state is reported by the health check below as
            # a diagnostics error; numpy's warnings about it would only
            # precede that message.
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(steps):
                    r = rk4_step(r, stages, gen.gain, work, product)
        drift, smallest = _health(r, gen.live, gen.sinks)
        ok = (drift <= TRACE_ABORT) & (smallest >= EIGENVALUE_ABORT)
        if not ok.all():
            for i in np.flatnonzero(~ok):
                errors[live[i]] = IntegrationDiagnosticsError(
                    times[k], dt, drift[i], smallest[i],
                    np.where(np.isfinite(r[i]), np.abs(r[i]), np.inf).max(),
                )
            r, live = r[ok], live[ok]
            # Each stage covers a leading run of the slices, which stays one.
            # Each pair's old operands are freed once its new ones exist.
            for i, stage in enumerate(stages):
                stages[i] = tuple(x[ok[: len(x)]] for x in stage)
            # The scratch stacks' contents are dead here; their leading
            # slices are contiguous stacks of the new size.
            product, work = product[: live.size], work[: live.size]
            drift, smallest = drift[ok], smallest[ok]
            if live.size == 0:
                break
        trace_drift[live, k] = drift
        min_eig[live, k] = smallest
        pur[live, k] = [purity(x) for x in r]
        herm[live, k] = hermiticity_residual(r)
        pops[live, k] = populations(r)

    return [
        errors[b] if b in errors
        else dict(
            populations=pops[b], trace_drift=trace_drift[b], min_eigenvalue=min_eig[b],
            purity=pur[b], hermiticity=herm[b],
        )
        for b in range(batch)
    ]


def sample_grid(dt: float, sample_every: float, t_max: float) -> tuple[int, np.ndarray]:
    """``(steps_per_sample, times)`` of a run in steps of ``dt``.

    The stride rounds ``sample_every`` to whole steps, at least one, and
    the sample ``times`` run from 0 in strides to the first sample at or
    past ``t_max``. A run of more than MAX_SAMPLES samples or MAX_STEPS
    steps is a ConfigurationError naming ``t_max`` or ``dt``. The walk
    takes these steps with RK4, or one Taylor step per stride where that
    costs less; the classical chain takes one step per sample.
    """
    # Checked first, so that round() never meets an infinite ratio.
    if not sample_every / dt < MAX_STEPS + 1:
        raise ConfigurationError(f"dt: {dt:g} asks for more than {MAX_STEPS} steps per sample")
    steps_per_sample = max(1, int(round(sample_every / dt)))
    stride = steps_per_sample * dt
    n_samples = max(1, int(np.ceil(t_max / stride - 1e-12)))
    if n_samples > MAX_SAMPLES:
        raise ConfigurationError(
            f"t_max: {t_max:g} asks for {n_samples:g} samples of stride {stride:g}, more than {MAX_SAMPLES}"
        )
    if steps_per_sample * n_samples > MAX_STEPS:
        raise ConfigurationError(
            f"dt: {dt:g} asks for {steps_per_sample * n_samples:g} steps, more than {MAX_STEPS}"
        )
    return steps_per_sample, np.arange(n_samples + 1) * stride


def evolve_batch(rho0, spec: HypercubeSpec, params_seq) -> list:
    """Integrate the walk from ``rho0`` for each params, stacked.

    Every run uses ``spec``'s graph and jump rule. The generator record
    (one M slice per distinct strength pair) is built once per call,
    before and without the state; only the framing of ``rho0`` reads the
    state. Each pair's Taylor degree comes from the record's norm bound.
    The runs that take one Taylor step per sample form one stack, and
    those that fall back to RK4 steps of dt another.

    Returns, in the order of ``params_seq``, each run's ``Trajectory`` or
    the ``IntegrationDiagnosticsError`` that ended it; a failed run does
    not stop the others, and each outcome equals that of a lone
    ``evolve``. The runs must share ``dt``, ``sample_every`` and
    ``t_max``, so that they share one ``sample_grid``. ``rho0`` may have
    no coherence that involves a sink (a ConfigurationError names the sink).
    """
    params_seq = list(params_seq)
    if np.shape(rho0) != (spec.dim, spec.dim):
        raise ConfigurationError(
            f"density matrix shape {np.shape(rho0)} does not match 2^{spec.n}"
        )
    # validate_density returns the Hermitian part, which _integrate needs.
    rho = validate_density(rho0, spec.sinks)
    if not params_seq:
        return []
    first = params_seq[0]
    if len({(p.dt, p.sample_every, p.t_max) for p in params_seq}) > 1:
        raise ConfigurationError("a batch of runs must share dt, sample_every and t_max")
    steps_per_sample, times = sample_grid(first.dt, first.sample_every, first.t_max)

    # Rescale to 1/gamma time units; gamma = 0 runs in plain time. A run
    # depends on its params only through these strengths, so each distinct
    # pair is integrated once and its outcome goes to every params with it.
    strengths = [(p.kappa / p.gamma, 1.0) if p.gamma > 0 else (p.kappa, 0.0) for p in params_seq]
    distinct = list(dict.fromkeys(strengths))
    slot = {pair: b for b, pair in enumerate(distinct)}

    gain, out_degree = jump_gain(build_jump_operators(spec), spec.dim)
    gen = _generator(build_hamiltonian(spec), gain, out_degree, spec.sinks, distinct)
    # Framing reads the state: R = Q^dag rho Q stays real while M and Im R
    # are, and each stack's M is cast to R's dtype.
    r = rho * _parity_phases(spec.dim)
    r = r if np.iscomplexobj(gen.m) or r.imag.any() else r.real
    stride = steps_per_sample * first.dt
    degrees = [taylor_degree(x * stride, 4 * steps_per_sample) for x in gen.bound()]
    # The Taylor slices run highest degree first, so that each stage acts
    # on a leading run of their stack; the others take RK4 steps of dt.
    taylor = sorted((b for b, d in enumerate(degrees) if d), key=lambda b: -degrees[b])
    fallback = [b for b, d in enumerate(degrees) if not d]
    outcomes = {}
    for group, step, steps in ((taylor, stride, 1), (fallback, first.dt, steps_per_sample)):
        if group:
            m = gen.m[group].astype(r.dtype)
            stages = _taylor_stages(m, gen.gamma[group], step, [degrees[b] or 4 for b in group])
            outcomes.update(zip(group, _integrate(np.stack([r] * len(group)), stages, gen, steps, times, first.dt)))
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


def evolve(rho0, spec: HypercubeSpec, params: WalkParams) -> Trajectory:
    """Integrate the walk on ``spec`` (its graph and jump rule) and sample its populations.

    The sampling stride is rounded to a whole number of steps of dt and
    the run extends to the first sample at or past ``t_max``. Each stride
    is one Taylor step whose degree comes from a norm bound, or, where
    that costs more, RK4 steps of dt (see the module docstring). Every
    sampled state is health-checked; a non-finite entry, a trace drift
    beyond 1e-6 or an eigenvalue below -1e-6 aborts the run with a
    diagnostics error, whose advice of a smaller dt is for RK4 steps.
    ``rho0`` may have no coherence that involves a sink (a
    ConfigurationError names the sink).
    This is the batch of one of ``evolve_batch``.
    """
    (outcome,) = evolve_batch(rho0, spec, [params])
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
