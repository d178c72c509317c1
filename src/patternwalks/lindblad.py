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
P + P^dag, Hermitian to the bit, and the feed, one product of the
pair's own gain gamma G, scaled by the step as M is, with R's diagonal.
R has rho's diagonal, spectrum and purity, so each sample reads them
off R. A sink has no coherent edge and no outgoing jump, so its rows
and columns of M are zero. The integrator requires an initial state
with no coherence that involves a sink and keeps each such coherence at
exactly 0.0, so the positivity check reads the non-sink block and the
sink populations. The equation is linear with a constant generator L,
so each sample is exp(s L) applied to the one before, for the sample
stride s. One frozen record, ``_Generator``, holds L for a stack of
strength pairs: M per pair, the gamma stack, G, the non-sink and sink
index arrays and the non-sink block's flat index. Its builder
``_generator`` takes H, G, the out-degrees and the sinks, and no state;
it is the only code that frames H and forms M. The record bounds L per
pair by the smaller of the 1-norm and 2-norm bounds, 2 ||M||_1 + gamma
||G||_1 and 2 ||M||_2 + gamma ||G||_2, each an induced norm of L in one
norm of R. ``evolve_batch`` builds it once per call, frames the state
(``frame``), the one step that reads it, and scales each stack's
operands (``operands``). A pair advances in
blocks of k sample strides s, k the largest of MAX_BLOCK_STRIDES, ...,
2, 1 for which the smallest degree m that the bound makes exact to
double precision over k s (the rule of ``numerics.taylor_degree``,
which ``expm`` shares) is below the 4 k s/dt stages of RK4 at dt. One
expansion stores the terms (s L)^j R, j = 0..m, one stage each, and
forms its k samples sum_j q^j / j! (s L)^j R, q = 1..k, as one product
of those weights with the stacked terms, run in column chunks that
OpenBLAS keeps on one thread each (SAMPLE_PRODUCT_MADDS). The pairs for
which some k qualifies form one stack, whose block sizes share their
stages: a period is K strides, K the stack's largest k, and
``rk4_step`` runs one round of it, the next expansion of every pair that
has one, so a pair of block size k takes K/k rounds per period and each
stage acts on all the pairs whose expansions reach its term. The pairs
for which no k qualifies form a second stack and take s/dt RK4 steps of
h = dt, each a round with k = K = 1 and m = 4. A stack of B states holds
(m+1) x B terms, m its highest degree, and K x B samples, in buffers
made once per run, and its operands h M and h gamma G, one slice per
pair, made once too and compacted when a pair drops. The rounds of one period, with every view of those
buffers they read, are bound once per stack size (``_round``), so that
a call of ``rk4_step`` or ``_stage`` runs only numpy kernels; every
period runs them all.

All times are expressed in 1/gamma units: for gamma > 0 the equation is
integrated in the rescaled time tau = gamma t, where the dissipator has
unit strength and the commutator carries kappa/gamma. For gamma = 0 the
plain coherent equation is integrated and times are unscaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .constants import (
    DEFAULT_DT,
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_T_MAX,
    EIGENVALUE_ABORT,
    HEALTH_CHUNK_BYTES,
    HERMITICITY_TOL,
    MAX_BLOCK_STRIDES,
    MAX_DT,
    MAX_SAMPLES,
    MAX_STEPS,
    MIXING_EPS,
    POPULATION_DUST,
    POSITIVITY_FLOOR,
    SAMPLE_PRODUCT_MADDS,
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


def _flat_block(live, dim: int) -> np.ndarray:
    """The (L, L) indices of the non-sink block (index array ``live``) in a flattened (dim, dim) matrix."""
    return (live * dim)[:, None] + live


def _health(m, block, sinks) -> tuple[np.ndarray, np.ndarray]:
    """Trace drift and smallest eigenvalue of each matrix in a (B, dim, dim) stack.

    Each matrix must be Hermitian, with its sink rows and columns (index
    array ``sinks``) zero off the diagonal. It is then block diagonal,
    and its smallest eigenvalue is the smaller of the non-sink block's
    (flat indices ``block``, from ``_flat_block``) and the smallest sink
    population. It is NaN for a matrix with a non-finite entry, which
    eigvalsh cannot take; a NaN fails every threshold comparison.
    """
    drift = np.abs(np.trace(m, axis1=1, axis2=2).real - 1.0)
    smallest = np.full(m.shape[0], np.nan)
    finite = np.isfinite(m).all(axis=(1, 2))
    if finite.any():
        ok = m if finite.all() else m[finite]
        # One copy gathers every slice's block, contiguous as a lone matrix's is.
        blocks = np.take(ok.reshape(len(ok), -1), block, axis=1)
        sink_populations = np.diagonal(ok, axis1=1, axis2=2).real[:, sinks]
        smallest[finite] = np.minimum(
            np.linalg.eigvalsh(blocks).min(axis=1), sink_populations.min(axis=1, initial=np.inf)
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
    block = _flat_block(live, m.shape[0])
    (drift,), (smallest,) = _health((herm if herm.imag.any() else herm.real)[None], block, sinks)
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


def purity(rho):
    """trace(rho^2); 1 for pure states, 1/dim for the maximally mixed one.

    A (B, dim, dim) stack gives one value per matrix, a single matrix a
    float. Each is one (1 x N) @ (N x 1) product of the flattened matrix,
    its left factor conjugated when complex; all of a stack's come from
    one stacked product.
    """
    m = np.asarray(rho)
    flat = m.reshape(-1, 1, m.shape[-2] * m.shape[-1])
    left = np.conjugate(flat) if flat.dtype.kind == "c" else flat
    values = np.matmul(left, flat.swapaxes(-1, -2))[:, 0, 0].real
    return float(values[0]) if m.ndim == 2 else values


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
    sinks, and ``block`` is the non-sink block's flat index (``_flat_block``).
    The record holds no state.
    """

    m: np.ndarray
    gamma: np.ndarray
    gain: np.ndarray
    live: np.ndarray
    sinks: np.ndarray
    block: np.ndarray

    def bound(self) -> np.ndarray:
        """Per slice, the smaller of the 1-norm and 2-norm bounds on L over the walk's states.

        ``2 ||M||_1 + gamma ||G||_1`` bounds L in the entrywise 1-norm of
        R: ``||M R||_1`` and ``||R M^dag||_1`` are at most ``||M||_1
        ||R||_1`` each, and the feed at most ``gamma ||G||_1 ||R||_1``.
        ``2 ||M||_2 + gamma ||G||_2`` bounds it in the Frobenius norm of R:
        ``||M R + R M^dag||_F <= 2 ||M||_2 ||R||_F``, and the feed at most
        ``gamma ||G||_2 ||R||_F``. The ``theta_m`` guarantee rests only on
        submultiplicativity, so it holds in either induced norm, and each
        slice takes the smaller whole bound. Each 2-norm is the square root
        of the largest eigenvalue of a Gram matrix, ``M^dag M`` or ``G^T
        G``; M's sink rows and columns and G's sink columns are zero, so
        the non-sink blocks give the same norms. A Gram matrix that
        overflows gives an infinite 2-norm bound, and a 1-norm that
        overflows an infinite 1-norm bound: such a pair takes RK4 steps,
        and the health check reports its state (see ``_integrate``).
        """
        gamma = self.gamma[:, 0, 0]
        m = self.m[:, self.live[:, None], self.live]
        g = self.gain[:, self.live]
        with np.errstate(over="ignore", invalid="ignore"):
            one_norm = 2 * np.abs(self.m).sum(axis=-2).max(axis=-1) + gamma * np.abs(self.gain).sum(axis=0).max()
            gram = m.conj().swapaxes(-1, -2) @ m
            finite = np.isfinite(gram).all(axis=(-2, -1))
            largest = np.full(len(gram), np.inf)
            largest[finite] = np.linalg.eigvalsh(gram[finite])[:, -1]
            two_norm = 2 * np.sqrt(largest) + gamma * np.sqrt(np.linalg.eigvalsh(g.T @ g)[-1])
        return np.minimum(one_norm, two_norm)

    def frame(self, rho) -> np.ndarray:
        """``R = Q^dag rho Q`` of a state or a stack of them, float64 unless M or Im R is complex."""
        r = rho * _parity_phases(rho.shape[-1])
        return r if np.iscomplexobj(self.m) or r.imag.any() else r.real

    def operands(self, pairs, h: float, dtype) -> tuple[np.ndarray, np.ndarray]:
        """``(h M, h gamma G)`` of the slices ``pairs``, h M in R's ``dtype``; each pair's gain folds in its gamma."""
        return (h * self.m[pairs]).astype(dtype, copy=False), h * self.gamma[pairs] * self.gain


def _generator(h, gain, out_degree, sinks, pairs) -> _Generator:
    """The walk's generator from H, G, the out-degrees and the sinks, one slice per ``(kappa, gamma)``.

    ``M = kappa K - i kappa D - (gamma/2) diag(out)`` from ``Q^dag H Q =
    D + iK``, with D on the non-sink vertices taken relative to the first
    one; M is complex128 only where that leaves D nonzero. An entry of M
    that overflows is left to the health check, as in ``_integrate``.
    """
    live, sinks = _split(h.shape[-1], sinks)
    kappa, gamma = np.array(pairs, dtype=float).T[..., None, None]
    framed = h * _parity_phases(h.shape[-1])
    d = framed.real
    d[live, live] -= d[live[0], live[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        m = kappa * framed.imag - gamma * np.diag(0.5 * out_degree)
        if d.any():
            m = m - 1j * kappa * d
    return _Generator(m, gamma, gain, live, sinks, _flat_block(live, h.shape[-1]))


def _stage(m, r, product, gain, column, fed, out, transposed, diagonal, fed_diagonal):
    """Write ``c L(r) = c M r + (c M r)^dag + diag(c gamma G diag r)`` into ``out``; return it.

    ``m`` is ``c M`` and ``gain`` is ``c gamma G``, per slice of ``r``;
    ``out`` may be ``r``. The other arguments are the scratch and the
    views that ``_stage_operands`` takes.
    """
    np.matmul(m, r, out=product)
    # Read r before out, which may be r, is written. The feed is one
    # product per slice, so a slice's bits do not depend on the stack.
    np.matmul(gain, column, out=fed)
    # A ufunc reading the transposed view would buffer a state-sized copy.
    np.copyto(out, transposed)
    if out.dtype.kind == "c":
        np.conjugate(out, out=out)
    out += product
    diagonal += fed_diagonal
    return out


def _stage_operands(m, r, product, gain, fed, out):
    """``_stage``'s arguments on ``r``, one matrix or a (B, dim, dim) stack, with every view taken here, once.

    ``product`` and ``out`` are contiguous and shaped like ``r``, and
    ``fed`` is a float64 scratch shaped like ``r[..., :1]``. Out's
    diagonal is every (dim + 1)-th entry of its flat view: a strided
    view, cheaper than fancy indexing.
    """
    dim = r.shape[-1]
    return (
        m, r, product, gain, r.diagonal(0, -2, -1).real[..., None], fed,
        out, product.swapaxes(-1, -2), out.reshape(-1, dim * dim)[:, :: dim + 1], fed[..., 0],
    )


def _coefficients(k: int, degree: int) -> np.ndarray:
    """The real (k, degree + 1) matrix ``[q^j / j!]``, q = 1..k; int / int division rounds each entry correctly."""
    return np.array([[q**j / math.factorial(j) for j in range(degree + 1)] for q in range(1, k + 1)])


def _round(terms, samples, m, gain, degrees, strides, r, coefficients):
    """Round ``r`` of a period on the (B, dim, dim) stack R = ``terms[0]``, as ``(stages, products, copies)``.

    Slice b, of block size k_b = ``strides[b]`` and degree d_b =
    ``degrees[b]``, sums the degree-d_b Taylor series of its k_b samples
    ``exp(q h L) R``, q = 1..k_b, from one expansion: ``terms[j] = (h L)^j
    R`` for j = 1..d_b, each one ``_stage`` with ``m`` = h M and ``gain`` =
    h gamma G, and then sample q is ``sum_j q^j / j! terms[j]``, one product
    of the first k_b rows of ``coefficients`` (``_coefficients(K, d)``, d
    at least every d_b) with the float64 view of the stacked terms. It
    writes them to rows ``r k_b .. (r+1) k_b - 1`` of ``samples`` and sets
    R to the last. The product runs in column chunks of at most
    SAMPLE_PRODUCT_MADDS multiply-adds, so that OpenBLAS runs each on one
    thread. Stage j acts on the leading run of the slices up to the
    last one whose degree reaches j, so a slice's bits do not depend on
    the stack; a slice in that run past its own degree computes a term
    that nothing reads. ``samples`` is (K, B, dim, dim); ``samples[-1]``
    is the stages' scratch, which a slice's product overwrites only in its
    last round of the K strides. ``terms[j]`` and ``samples[-1]`` are
    contiguous (B, dim, dim) stacks.

    The round is returned with every view it reads taken here, once:
    ``stages`` holds the ``_stage`` operands of terms 1..d, ``products``
    the ``(weights, series, out)`` of each column chunk of each slice's
    sample product, and ``copies`` the ``(R, last sample)`` pair of each
    run of one block size. The stages share one (B, dim, 1) feed scratch,
    the round's only allocation.
    """
    product, fed = samples[-1], np.empty((len(degrees), terms.shape[-1], 1))
    count, stages = len(degrees), []
    for j in range(1, max(degrees) + 1):
        # Stage j's run ends at the last slice whose degree reaches j.
        while degrees[count - 1] < j:
            count -= 1
        stages.append(_stage_operands(
            m[:count], terms[j - 1, :count], product[:count], gain[:count], fed[:count], terms[j, :count]
        ))
    products = []
    for b, (degree, k) in enumerate(zip(degrees, strides)):
        weights = coefficients[:k, : degree + 1]
        series = terms[: degree + 1, b].view(np.float64).reshape(degree + 1, -1)
        out = samples[r * k : (r + 1) * k, b].view(np.float64).reshape(k, -1)
        # Halved, the chunks stay equal and divide the 2^p columns, so each
        # column's bits are those of the whole product.
        width = series.shape[1]
        while width > 1 and weights.size * width > SAMPLE_PRODUCT_MADDS:
            width //= 2
        products += [
            (weights, series[:, i : i + width], out[:, i : i + width]) for i in range(0, series.shape[1], width)
        ]
    # The slices of one block size are a run, and share their last row.
    copies, start = [], 0
    for k, run in groupby(strides):
        stop = start + len(list(run))
        copies.append((terms[0, start:stop], samples[(r + 1) * k - 1, start:stop]))
        start = stop
    return stages, products, copies


def rk4_step(round_) -> None:
    """Run one round bound by ``_round``: its stages, its sample products (in column chunks) and R's update.

    k = 1 at degree 4 is one RK4 step of h: for a constant generator
    every 4-stage explicit Runge-Kutta method of order 4 is this
    polynomial.
    """
    stages, products, copies = round_
    for operands in stages:
        _stage(*operands)
    for weights, series, out in products:
        np.matmul(weights, series, out=out)
    for state, last in copies:
        np.copyto(state, last)


def _block(x: float, steps_per_sample: int) -> tuple[int, int]:
    """``(k, m)`` for a pair whose norm bound times the sample stride is ``x``.

    The bound is the smaller of the 1-norm and 2-norm bounds of
    ``_Generator.bound``.

    k is the largest of MAX_BLOCK_STRIDES, ..., 2, 1 (halving) for which
    m = ``taylor_degree(k x)`` is below the ``4 k steps_per_sample``
    stages of RK4 at dt over k strides; the pair then advances in blocks
    of k strides, one degree-m expansion each. ``(0, 4)`` if no k
    qualifies: the pair takes RK4 steps of dt.
    """
    k = MAX_BLOCK_STRIDES
    while k:
        m = taylor_degree(k * x, 4 * k * steps_per_sample)
        if m:
            return k, m
        k //= 2
    return 0, 4


def _chunks(count: int, nbytes: int):
    """Slices of ``range(count)`` of at most HEALTH_CHUNK_BYTES of ``nbytes``-byte matrices each, at least one."""
    size = max(1, HEALTH_CHUNK_BYTES // nbytes)
    return [slice(i, i + size) for i in range(0, count, size)]


def _integrate(r, ops, degrees, strides, steps: int, gen: _Generator, times, dt: float):
    """Step a (B, dim, dim) stack of framed states, health-checking every sample.

    Slice b advances on ``ops = (h M, h gamma G)`` in expansions of
    ``strides[b]`` = k_b outputs at stride h and degree ``degrees[b]``;
    the slices are ordered by k ascending, then by degree descending. A
    period is K sample strides, K the largest k_b, and each of its samples
    after ``times[0]`` comes from rounds of ``rk4_step``: round r runs the
    r-th expansion of every slice with one, a leading run of the stack, so
    slice b runs K / k_b rounds (``steps`` = 1). The RK4 fallback is
    ``steps`` rounds of k = 1 per sample at degree 4. Every period runs
    all of its rounds: one cut short by the horizon computes samples past
    it, which nothing reads. G, the sinks and the non-sink block come from
    the generator record ``gen``. M's rows and columns, G's columns and
    each coherence of the Hermitian ``r`` with a sink are zero at the
    sinks; the health check then reads eigenvalues of the non-sink block.
    It takes a period's samples in sample order, in chunks of at most
    HEALTH_CHUNK_BYTES. A slice that fails it at the q-th sample of a
    period keeps its earlier samples, reports the q-th's time and is
    dropped, and the others go on unchanged. Returns per slice its
    ``Trajectory`` fields or its ``IntegrationDiagnosticsError``, which
    reports ``dt``.

    The rounds allocate no state-sized array. The buffers are made once:
    ``(d + 1) x B`` terms, d the highest degree, and ``K x B`` samples.
    They are left uninitialized: a stage's run is never longer than the
    one before it, so each stage reads only terms written earlier in its
    round. The rounds of a period are bound (``_round``) at the start and
    again when a slice drops: the survivors' states and operands are then
    compacted, and the buffers are viewed at the new size.
    """
    batch, dim = r.shape[0], r.shape[-1]
    pops = np.empty((batch, times.size, dim))
    trace_drift = np.empty((batch, times.size))
    min_eig = np.empty((batch, times.size))
    pur = np.empty((batch, times.size))
    herm = np.empty((batch, times.size))
    errors = {}
    live = np.arange(batch)
    m, gain = ops
    degrees, strides = list(degrees), list(strides)
    period, depth = max(strides), max(degrees) + 1
    coefficients = _coefficients(period, depth - 1)
    terms_buffer = np.empty(depth * batch * dim * dim, dtype=r.dtype)
    samples_buffer = np.empty(period * batch * dim * dim, dtype=r.dtype)

    def bind(count):
        """The buffers' leading parts as (depth or K, count, dim, dim) stacks, and a period's rounds on them."""
        terms = terms_buffer[: depth * count * dim * dim].reshape(depth, count, dim, dim)
        samples = samples_buffer[: period * count * dim * dim].reshape(period, count, dim, dim)
        rounds = []
        # Round r takes the leading slices whose blocks it reaches, r k < K.
        for round_ in range(period // strides[0]):
            active = sum(round_ * k < period for k in strides)
            rounds.append(_round(
                terms[:, :active], samples[:, :active], m[:active], gain[:active],
                degrees[:active], strides[:active], round_, coefficients,
            ))
        return terms, samples, rounds

    terms, samples, rounds = bind(batch)
    np.copyto(terms[0], r)
    start, block = 0, terms[:1]
    while True:
        count = block.shape[1]
        flat = block.reshape(-1, dim, dim)
        drift, smallest = np.empty(len(flat)), np.empty(len(flat))
        for chunk in _chunks(len(flat), flat[0].nbytes):
            drift[chunk], smallest[chunk] = _health(flat[chunk], gen.block, gen.sinks)
        drift, smallest = drift.reshape(-1, count), smallest.reshape(-1, count)
        # A slice keeps the samples before its first failing one.
        kept = np.logical_and.accumulate((drift <= TRACE_ABORT) & (smallest >= EIGENVALUE_ABORT), axis=0)
        q, b = np.nonzero(kept)
        rows, cols = live[b], start + q
        trace_drift[rows, cols] = drift[kept]
        min_eig[rows, cols] = smallest[kept]
        # The kept samples in sample order, read in chunks of the flat stack.
        index = None if kept.all() else np.flatnonzero(kept)
        for chunk in _chunks(len(q), flat[0].nbytes):
            checked = flat[chunk] if index is None else flat[index[chunk]]
            pur[rows[chunk], cols[chunk]] = purity(checked)
            herm[rows[chunk], cols[chunk]] = hermiticity_residual(checked)
            pops[rows[chunk], cols[chunk]] = populations(checked)
        ok = kept[-1]
        if not ok.all():
            for i in np.flatnonzero(~ok):
                first = np.count_nonzero(kept[:, i])
                bad = block[first, i]
                errors[live[i]] = IntegrationDiagnosticsError(
                    times[start + first], dt, drift[first, i], smallest[first, i],
                    np.where(np.isfinite(bad), np.abs(bad), np.inf).max(),
                )
            live, states = live[ok], terms[0][ok]
            if live.size == 0:
                break
            # Each pair's old operands are freed once its new ones exist.
            m, gain = m[ok], gain[ok]
            degrees = [d for d, keep in zip(degrees, ok) if keep]
            strides = [k for k, keep in zip(strides, ok) if keep]
            terms, samples, rounds = bind(live.size)
            np.copyto(terms[0], states)
        start += len(block)
        if start == times.size:
            break
        # An overflowing state is reported by the health check above as a
        # diagnostics error; numpy's warnings about it would only precede
        # that message.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                for round_ in rounds:
                    rk4_step(round_)
        block = samples[: times.size - start]

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
    takes these steps with RK4, or one Taylor expansion per block of up
    to MAX_BLOCK_STRIDES strides where that costs less; the classical
    chain takes one step per sample.
    """
    # Checked first, so that round() never meets an infinite ratio.
    if not sample_every / dt < MAX_STEPS + 1:
        raise ConfigurationError(f"dt: {dt:g} asks for more than {MAX_STEPS} steps per sample")
    steps_per_sample = max(1, int(round(sample_every / dt)))
    stride = steps_per_sample * dt
    # Checked before ceil(), which cannot take an infinite ratio either.
    ratio = t_max / stride - 1e-12
    if not ratio <= MAX_SAMPLES:
        raise ConfigurationError(
            f"t_max: {t_max:g} asks for more than {MAX_SAMPLES} samples of stride {stride:g}"
        )
    n_samples = max(1, int(np.ceil(ratio)))
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
    state. Each pair's block size and Taylor degree come from the
    record's norm bound (see ``_block``). The runs form at most two
    stacks: one of the pairs that take Taylor expansions, whose block
    sizes share their stage calls (see ``_integrate``), and one of those
    that fall back to RK4 steps of dt.

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
    r = gen.frame(rho)
    stride = steps_per_sample * first.dt
    blocks = [_block(x * stride, steps_per_sample) for x in gen.bound()]
    # One stack of the exact pairs, by block size ascending and then degree
    # descending, so that each round's pairs and each stage's are leading
    # runs of it; one of the RK4 fallback pairs (k = 0), rounds of one step
    # of dt.
    exact = sorted((b for b, (k, _) in enumerate(blocks) if k), key=lambda b: (blocks[b][0], -blocks[b][1]))
    fallback = [b for b, (k, _) in enumerate(blocks) if not k]
    outcomes = {}
    for group, h, steps in ((exact, stride, 1), (fallback, first.dt, steps_per_sample)):
        if not group:
            continue
        ops = gen.operands(group, h, r.dtype)
        stack = np.broadcast_to(r, (len(group), *r.shape))
        degrees = [blocks[b][1] for b in group]
        strides = [blocks[b][0] or 1 for b in group]
        outcomes.update(zip(group, _integrate(stack, ops, degrees, strides, steps, gen, times, first.dt)))
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
    the run extends to the first sample at or past ``t_max``. Each block
    of up to MAX_BLOCK_STRIDES (eight) strides is one Taylor expansion
    whose degree comes from a norm bound and yields each of its samples,
    or, where that costs more, each stride is RK4 steps of dt (see the
    module docstring).
    Every sampled state is health-checked; a non-finite entry, a trace
    drift beyond 1e-6 or an eigenvalue below -1e-6 aborts the run with a
    diagnostics error at that sample's time, whose advice of a smaller dt
    is for RK4 steps. ``rho0`` may have no coherence that involves a sink
    (a ConfigurationError names the sink).
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
