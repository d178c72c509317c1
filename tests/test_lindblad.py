import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from patternwalks import lindblad
from patternwalks.config import load_scenario
from patternwalks.constants import HERMITICITY_TOL, MAX_BLOCK_STRIDES
from patternwalks.errors import (
    ConfigurationError,
    ContractViolationError,
    IntegrationDiagnosticsError,
)
from patternwalks.hypercube import (
    RULES,
    JumpOperator,
    build_hamiltonian,
    build_jump_operators,
    jump_gain,
    make_spec,
    vertex_index,
)
from patternwalks.lindblad import (
    Trajectory,
    WalkParams,
    _coefficients,
    _flat_block,
    _generator,
    _health,
    _integrate,
    _parity_phases,
    _round,
    _split,
    _stage,
    _stage_operands,
    basis_density,
    density_from_pattern,
    evolve,
    evolve_batch,
    mixing_time,
    populations,
    purity,
    sample_grid,
    validate_density,
)
from patternwalks.markov import ctmc_evolve, ctmc_samples, rate_matrix_from_jumps
from patternwalks.numerics import expm, hermiticity_residual

from cli_checks import CONFIGS
from oracles import (
    dense_jump_matrices,
    dense_master_rhs,
    liouvillian_matrix,
    random_density,
    rk4_staged_step,
    superoperator_populations,
)
from walk_schedules import SCHEDULE, WALKS, assert_same, lone


def unframed(r):
    """``rho = Q R Q^dag`` of the state ``R = Q^dag rho Q`` that ``_integrate`` steps."""
    return r * _parity_phases(r.shape[-1]).conj()


def walk_operands(rho, h, jumps, kappa, gamma, sinks=()):
    """``(R, gen)``: the framed state and the one-pair record evolve derives from ``rho``, ``h`` and ``jumps``."""
    gain, out_degree = jump_gain(jumps, rho.shape[-1])
    return framed_stack(rho, h, gain, out_degree, [(kappa, gamma)], sinks)


def stage(r, m, gain, out, product):
    """One ``_stage`` call, which writes ``L(r)`` for ``m`` and ``gain`` into ``out``."""
    return _stage(*_stage_operands(m, r, product, gain, np.empty(r[..., :1].shape), out))


def walk_rhs(rho, h, jumps, kappa, gamma, sinks=(), c=1.0):
    """``c`` times the stage evolve integrates, on the framed ``rho``, as a new array."""
    r, gen = walk_operands(rho, h, jumps, kappa, gamma, sinks)
    return stage(r, *gen.operands(0, c, r.dtype), np.empty_like(r), np.empty_like(r))


def blocks(r, gen, h, degree=4, k=1, count=1, pair=0):
    """The k samples of the last of ``count`` ``lindblad.rk4_step`` blocks on ``r``, a stack of one.

    Each block is one degree-``degree`` expansion of stride ``h`` for the
    record's slice ``pair``; k = 1 at degree 4 is one RK4 step. The
    blocks rerun one bound round.
    """
    terms = np.empty((degree + 1, 1, *r.shape), dtype=r.dtype)
    terms[0, 0] = r
    samples = np.empty((k, 1, *r.shape), dtype=r.dtype)
    ops = gen.operands([pair], h, r.dtype)
    bound = _round(terms, samples, *ops, [degree], [k], 0, _coefficients(k, degree))
    for _ in range(count):
        lindblad.rk4_step(bound)
    return samples[:, 0]


def stepped(r, gen, h, degree=4, steps=1):
    """``r`` after ``steps`` degree-``degree`` blocks of one stride ``h`` (RK4 steps at degree 4)."""
    return blocks(r, gen, h, degree, count=steps)[-1]


def framed_stack(rho, h, gain, out_degree, strengths, sinks=()):
    """``(R, gen)`` as evolve_batch frames them: one ``(kappa, gamma)`` per slice of ``rho``."""
    gen = _generator(h, gain, out_degree, sinks, strengths)
    return gen.frame(rho), gen


def checked_chunks(monkeypatch, chunk_bytes=None):
    """Sizes of the stacks ``lindblad._health`` checks from here on, with its chunks capped at ``chunk_bytes``."""
    health, sizes = lindblad._health, []

    def seen(m, *rest):
        sizes.append(len(m))
        return health(m, *rest)

    monkeypatch.setattr(lindblad, "_health", seen)
    if chunk_bytes is not None:
        monkeypatch.setattr(lindblad, "HEALTH_CHUNK_BYTES", chunk_bytes)
    return sizes


def random_framed_state(spec, rng, real):
    """A random framed state with no sink coherence: real symmetric or complex Hermitian."""
    live, sinks = _split(spec.dim, spec.sinks)
    weights = rng.dirichlet(np.ones(sinks.size + 1))
    block = random_density(live.size, rng)
    r = np.zeros((spec.dim, spec.dim), dtype=float if real else complex)
    r[np.ix_(live, live)] = weights[0] * (block.real if real else block)
    r[sinks, sinks] = weights[1:]
    return r


def random_spec(rng, n):
    dim = 1 << n
    count = int(rng.integers(1, min(3, dim - 1) + 1))
    sinks = rng.choice(dim, size=count, replace=False)
    return make_spec(n, [int(s) for s in sinks])


class TestWalkParams:
    def test_both_strengths_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            WalkParams(kappa=0.0, gamma=0.0)

    def test_step_cap(self):
        with pytest.raises(ConfigurationError):
            WalkParams(kappa=1.0, gamma=1.0, dt=0.02)

    @pytest.mark.parametrize("dt", [0.0, -0.005])
    def test_nonpositive_step_rejected(self, dt):
        with pytest.raises(ConfigurationError, match="dt must lie in"):
            WalkParams(kappa=1.0, gamma=1.0, dt=dt)

    def test_negative_strength_rejected(self):
        with pytest.raises(ConfigurationError):
            WalkParams(kappa=-0.1, gamma=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kappa", float("nan")), ("kappa", float("inf")), ("gamma", float("nan")), ("gamma", float("inf")),
            ("t_max", float("inf")), ("sample_every", float("inf")),
            pytest.param("kappa", 10**400, id="kappa-huge-int"), pytest.param("t_max", -(10**400), id="t_max-huge-int"),
        ],
    )
    def test_non_finite_number_rejected(self, field, value):
        values = {"kappa": 1.0, "gamma": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be a finite number"):
            WalkParams(**values)

    @pytest.mark.parametrize("field, value", [("kappa", None), ("kappa", "1"), ("kappa", True), ("dt", False)])
    def test_value_that_is_not_a_real_number_rejected(self, field, value):
        values = {"kappa": 1.0, "gamma": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be a real number, got {value!r}"):
            WalkParams(**values)


class TestStateHelpers:
    def test_basis_density(self):
        rho = basis_density(2, 4)
        assert rho[2, 2] == 1.0 and np.trace(rho) == 1.0

    def test_density_from_pattern(self):
        rho = density_from_pattern("101", 3)
        assert rho[5, 5] == 1.0

    def test_validate_rejects_traceless(self):
        with pytest.raises(ContractViolationError):
            validate_density(np.zeros((2, 2)))

    def test_validate_rejects_negative(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ContractViolationError):
            validate_density(rho)

    def test_validate_rejects_sinks_on_every_vertex(self):
        with pytest.raises(ConfigurationError, match="sinks: at least one vertex"):
            validate_density(np.eye(2) / 2, sinks=(0, 1))

    def test_validate_rejects_non_finite(self):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = np.nan
        with pytest.raises(ContractViolationError):
            validate_density(rho)

    def test_populations_pure_and_mixed(self):
        assert np.allclose(populations(basis_density(1, 4)), [0, 1, 0, 0])
        assert np.allclose(populations(np.eye(8) / 8.0), np.full(8, 0.125))
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.allclose(populations(plus), [0.5, 0.5])

    def test_purity_bounds(self):
        assert purity(basis_density(0, 4)) == pytest.approx(1.0)
        assert purity(np.eye(8) / 8.0) == pytest.approx(1.0 / 8.0)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_stacked_purity_is_the_per_sample_vdot(self, real):
        # the health pass takes a stack's purities from one stacked
        # (1 x N) @ (N x 1) product; each equals the single matrix's
        # purity and np.vdot bit for bit
        rng = np.random.default_rng(157)
        for n in (2, 4, 6):
            spec = random_spec(rng, n)
            stack = np.stack([random_framed_state(spec, rng, real) for _ in range(12)])
            single = [purity(x) for x in stack]
            assert all(type(x) is float for x in single)
            assert np.array_equal(purity(stack), single)
            assert np.array_equal(single, [np.vdot(x, x).real for x in stack])


class TestRhs:
    def test_zero_strengths_give_zero(self):
        spec = make_spec(2, ["11"])
        h = build_hamiltonian(spec)
        out = walk_rhs(basis_density(0, 4), h, build_jump_operators(spec), 0.0, 0.0, spec.sinks)
        assert np.all(out == 0.0)

    def test_commuting_state_gives_zero_without_dissipation(self):
        h = np.diag([1.0, 2.0, 3.0])
        rho = np.diag([0.2, 0.3, 0.5])
        out = walk_rhs(rho, h, [], 1.0, 0.0)
        assert np.max(np.abs(out)) < 1e-15

    def test_two_level_amplitude_damping_by_hand(self):
        h = np.zeros((2, 2))
        out = walk_rhs(basis_density(0, 2), h, [JumpOperator(src=0, dst=1)], 0.0, 1.0)
        assert np.allclose(out, np.diag([-1.0, 1.0]))

    def test_matches_dense_operator_algebra(self):
        # real and complex framed states, each against the dense generator
        # applied to rho = Q R Q^dag
        rng = np.random.default_rng(83)
        for trial in range(10):
            n = int(rng.integers(1, 4))
            spec = random_spec(rng, n)
            jumps = build_jump_operators(spec)
            h = build_hamiltonian(spec)
            rho = unframed(random_framed_state(spec, rng, real=trial % 2 == 0))
            kappa, gamma = rng.uniform(0, 2, size=2)
            fast = walk_rhs(rho, h, jumps, kappa, gamma, spec.sinks)
            assert fast.dtype == np.float64 or trial % 2 == 1
            dense = dense_master_rhs(rho, h, dense_jump_matrices(jumps, spec.dim), kappa, gamma)
            assert np.max(np.abs(unframed(fast) - dense)) < 1e-12

    def test_output_is_hermitian(self):
        # a real state gives an exactly symmetric output and a complex one
        # an exactly Hermitian output; both are the dense generator's
        rng = np.random.default_rng(89)
        spec = make_spec(3, ["101", "111"])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        for real in (True, False):
            rho = unframed(random_framed_state(spec, rng, real))
            out = walk_rhs(rho, h, jumps, 1.3, 0.7, spec.sinks)
            assert np.array_equal(out, out.conj().T)
            dense = dense_master_rhs(rho, h, dense_jump_matrices(jumps, 8), 1.3, 0.7)
            assert np.max(np.abs(unframed(out) - dense)) < 1e-12

    def test_scaled_stage_written_over_its_input(self):
        rng = np.random.default_rng(91)
        spec = make_spec(3, ["101", "111"])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        rho = unframed(random_framed_state(spec, rng, real=True))
        apart = walk_rhs(rho, h, jumps, 1.3, 0.7, spec.sinks, c=0.25)
        r, gen = walk_operands(rho, h, jumps, 1.3, 0.7, spec.sinks)
        inplace = r.copy()
        assert stage(inplace, *gen.operands(0, 0.25, r.dtype), inplace, np.empty_like(r)) is inplace
        assert np.array_equal(inplace, apart)
        dense = dense_master_rhs(rho, h, dense_jump_matrices(jumps, 8), 1.3, 0.7)
        assert np.max(np.abs(unframed(apart) - 0.25 * dense)) < 1e-12

    def test_stage_on_a_stack_of_strengths(self):
        # three slices share H and G but not kappa and gamma; each matches
        # the dense generator and its own lone evaluation bit for bit, and
        # each output slice is exactly symmetric
        rng = np.random.default_rng(107)
        spec = make_spec(3, ["101", "111"])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        gain, out_degree = jump_gain(jumps, 8)
        strengths = [(0.0, 1.0), (1.3, 0.7), (2.5, 0.0)]
        rho = np.stack([unframed(random_framed_state(spec, rng, real=True)) for _ in range(3)])
        r, gen = framed_stack(rho, h, gain, out_degree, strengths, spec.sinks)
        assert r.dtype == gen.m.dtype == np.float64
        out = stage(r, *gen.operands(slice(None), 0.25, r.dtype), np.empty_like(r), np.empty_like(r))
        assert np.array_equal(out, out.swapaxes(-1, -2))
        mats = dense_jump_matrices(jumps, 8)
        for b, (k, g) in enumerate(strengths):
            dense = dense_master_rhs(rho[b], h, mats, k, g)
            assert np.max(np.abs(unframed(out[b]) - 0.25 * dense)) < 1e-12
            assert np.array_equal(out[b], walk_rhs(rho[b], h, jumps, k, g, spec.sinks, c=0.25))

    def test_self_pair_override_matches_dense_operator_algebra(self):
        # unequal non-sink self-loops leave D nonzero, so M and the state
        # are complex; the formula still matches the dense generator
        rng = np.random.default_rng(127)
        spec = make_spec(3, ["101", "111"], [("000", "000", 2.0), ("010", "010", 0.5)])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        for real in (True, False):
            rho = unframed(random_framed_state(spec, rng, real))
            out = walk_rhs(rho, h, jumps, 1.3, 0.7, spec.sinks)
            assert out.dtype == np.complex128
            assert np.array_equal(out, out.conj().T)
            dense = dense_master_rhs(rho, h, dense_jump_matrices(jumps, 8), 1.3, 0.7)
            assert np.max(np.abs(unframed(out) - dense)) < 1e-12


class TestRk4Step:
    # self-pairs of unequal weight on non-sink vertices make M complex
    SELF_PAIRS = {"real": (), "complex": [("000", "000", 2.0), ("010", "010", 0.5)]}

    def test_zero_generator_keeps_state(self):
        # every term past the state is zero, so each sample is the state
        rng = np.random.default_rng(137)
        r = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        start = r.copy()
        terms = np.empty((5, 2, 4, 4), dtype=complex)
        terms[0] = r
        samples = np.empty((2, 2, 4, 4), dtype=complex)
        zeros = (np.zeros((2, 4, 4), dtype=complex), np.zeros((2, 4, 4)))
        lindblad.rk4_step(_round(terms, samples, *zeros, [4, 4], [2, 2], 0, _coefficients(2, 4)))
        assert np.array_equal(samples, np.stack([start, start]))
        assert np.array_equal(terms[0], start)

    @pytest.mark.parametrize("dt", [0.01, 0.005])
    def test_two_level_decay_is_the_quartic_taylor_polynomial(self, dt):
        # n = 1, sink 1, start 0, kappa = 0: the population on 0 obeys
        # p' = -p, so one step multiplies it by the degree-4 Taylor
        # polynomial of exp(-dt)
        spec = make_spec(1, ["1"])
        r, gen = walk_operands(
            basis_density(0, 2), build_hamiltonian(spec), build_jump_operators(spec), 0.0, 1.0, spec.sinks
        )
        after = stepped(r, gen, dt)
        assert after[0, 0] == pytest.approx(1 - dt + dt**2 / 2 - dt**3 / 6 + dt**4 / 24, rel=1e-15, abs=0.0)
        assert after[0, 0] + after[1, 1] == pytest.approx(1.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("degree", [1, 7, 19, 55])
    @pytest.mark.parametrize("h", [0.05, 0.5])
    def test_two_level_decay_is_the_truncated_series(self, degree, h):
        # the same decay: output q of a degree-m block of k = 1, 2 or 4
        # strides h multiplies the population on 0 by
        # sum_{j <= m} (-q h)^j / j!, as if summed exactly
        spec = make_spec(1, ["1"])
        r, gen = walk_operands(
            basis_density(0, 2), build_hamiltonian(spec), build_jump_operators(spec), 0.0, 1.0, spec.sinks
        )
        for k in (1, 2, 4):
            outputs = blocks(r, gen, h, degree, k)
            assert len(outputs) == k
            for q, after in enumerate(outputs, start=1):
                series = float(sum(Fraction(-q * h) ** j / math.factorial(j) for j in range(degree + 1)))
                assert after[0, 0] == pytest.approx(series, rel=1e-15, abs=0.0)
                assert after[0, 0] + after[1, 1] == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_coefficients_are_the_scaled_taylor_weights(self):
        c = _coefficients(4, 55)
        assert c.shape == (4, 56)
        for q in range(1, 5):
            for j in (0, 1, 7, 55):
                assert c[q - 1, j] == float(Fraction(q**j, math.factorial(j)))

    @pytest.mark.parametrize("path", ["real", "complex"])
    def test_single_step_matches_liouvillian_exponential_to_fifth_order(self, path):
        spec = make_spec(3, ["101", "111"], self.SELF_PAIRS[path])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        rho0 = basis_density(0, 8)
        sup = liouvillian_matrix(h, dense_jump_matrices(jumps, 8), 1.0, 1.0)
        r, gen = walk_operands(rho0, h, jumps, 1.0, 1.0, spec.sinks)
        assert r.dtype == (np.float64 if path == "real" else np.complex128)
        for dt in (0.01, 0.005):
            after = unframed(stepped(r, gen, dt))
            exact = (expm(dt * sup) @ rho0.reshape(-1, order="F")).reshape(8, 8, order="F")
            assert np.max(np.abs(after - exact)) < 10 * dt**5

    @pytest.mark.parametrize("path", ["real", "complex"])
    def test_degree_4_blocks_match_staged_oracle(self, path):
        # the summed series and the four general stages are the same map
        # for a linear generator; only the rounding differs
        rng = np.random.default_rng(139)
        spec = make_spec(3, ["101", "111"], self.SELF_PAIRS[path])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        mats = dense_jump_matrices(jumps, 8)
        rho = unframed(random_framed_state(spec, rng, real=path == "real"))
        r, gen = walk_operands(rho, h, jumps, 1.3, 0.7, spec.sinks)
        summed = unframed(stepped(r, gen, 0.01, steps=100))
        staged = rho
        for _ in range(100):
            staged = rk4_staged_step(lambda x: dense_master_rhs(x, h, mats, 1.3, 0.7), staged, 0.01)
        assert np.max(np.abs(summed - staged)) / np.max(np.abs(staged)) < 1e-13


class TestFrame:
    def test_phases_conjugate_by_parity(self):
        for n in (1, 3, 4):
            dim = 1 << n
            q = np.array([1j ** bin(v).count("1") for v in range(dim)])
            x = np.random.default_rng(n).normal(size=(dim, dim))
            assert np.allclose(_parity_phases(dim) * x, np.diag(q.conj()) @ x @ np.diag(q), atol=1e-15)

    def test_k_is_real_antisymmetric_with_zero_sink_rows(self):
        # under both rules and random distance-1 weights, Q^dag H Q = iK
        # on the non-sink block: K is real antisymmetric, carries H's
        # weights with a sign, and has no sink row or column
        rng = np.random.default_rng(131)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            edges = [(u, u | 1 << b) for u in range(1 << n) for b in range(n) if not u >> b & 1]
            weights = rng.uniform(0.2, 3.0, size=len(edges))
            spec = make_spec(n, list(random_spec(rng, n).sinks), [(u, v, float(w)) for (u, v), w in zip(edges, weights)])
            sinks = _split(spec.dim, spec.sinks)[1]
            no_jumps = (np.zeros((spec.dim, spec.dim)), np.zeros(spec.dim))
            for rule in RULES:
                h = build_hamiltonian(replace(spec, rule=rule))
                # M = K at kappa = 1, gamma = 0; the record is built without a state
                (k,) = _generator(h, *no_jumps, spec.sinks, [(1.0, 0.0)]).m
                assert k.dtype == np.float64
                assert np.array_equal(k, -k.T)
                assert np.array_equal(np.abs(k), h - np.diag(np.diag(h)))
                assert np.all(k[sinks] == 0.0) and np.all(k[:, sinks] == 0.0)

    def test_state_dtype_follows_the_data(self):
        # a basis start keeps R float64; a complex rho0 or unequal non-sink
        # self-loop weights make it complex128. The table's walks step in
        # the framed state's dtype (TestSchedule::test_schedule)
        spec = make_spec(3, ["101", "111"])
        # (|000> + |010>) / sqrt 2 is real, but its coherence joins two
        # parities and so is imaginary in the frame
        superposed = np.zeros((8, 8))
        superposed[0, 0] = superposed[2, 2] = superposed[0, 2] = superposed[2, 0] = 0.5
        self_pairs = make_spec(3, ["101", "111"], [("000", "000", 2.0)])
        equal_self_pairs = make_spec(3, ["101", "111"], [(v, v, 2.0) for v in (0, 1, 2, 3, 4, 6)])
        for rho0, walk_spec, dtype in (
            (basis_density(0, 8), spec, np.float64),
            (superposed, spec, np.complex128),
            (basis_density(0, 8), self_pairs, np.complex128),
            (basis_density(0, 8), equal_self_pairs, np.float64),
        ):
            h, jumps = build_hamiltonian(walk_spec), build_jump_operators(walk_spec)
            r, _ = walk_operands(validate_density(rho0, walk_spec.sinks), h, jumps, 1.0, 1.0, walk_spec.sinks)
            assert r.dtype == dtype


class TestGenerator:
    def test_bound_covers_the_liouvillian_on_the_walks_states(self):
        # the record's bound is the smaller of 2 ||M||_1 + gamma ||G||_1 and
        # 2 ||M||_2 + gamma ||G||_2, and it is at least the 1-norm or the
        # 2-norm of L over the states the walk steps (the non-sink block and
        # the sink diagonal): the largest column sum or the largest singular
        # value of the oracle superoperator restricted to them. Each may
        # reach equality, so the check allows rounding; each of the two
        # bounds is the smaller one somewhere
        rng = np.random.default_rng(157)
        pairs = [(0.0, 1.0), (0.5, 1.0), (3.0, 1.0), (20.0, 1.0), (1.0, 0.0)]
        smaller = set()
        for trial in range(40):
            spec = random_spec(rng, int(rng.integers(2, 5)))
            live, sinks = _split(spec.dim, spec.sinks)
            if trial % 2 and live.size >= 2:
                # two unequal non-sink self-loops leave D nonzero, so M is complex
                loops = rng.choice(live, size=2, replace=False)
                weights = rng.uniform(0.2, 3.0, size=2)
                spec = make_spec(spec.n, list(spec.sinks), [(int(v), int(v), float(w)) for v, w in zip(loops, weights)])
            h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
            gen = _generator(h, *jump_gain(jumps, spec.dim), spec.sinks, pairs)
            assert np.iscomplexobj(gen.m) == (spec.edge_weights != ())
            # Fortran vec order: rho[i, j] is entry i + dim * j
            columns = np.concatenate([(live[:, None] + spec.dim * live).ravel(), sinks * (spec.dim + 1)])
            # L is linear in the strengths, so two oracle calls give every pair's columns
            mats = dense_jump_matrices(jumps, spec.dim)
            coherent = liouvillian_matrix(h, [], 1.0, 0.0)[:, columns]
            dissipator = liouvillian_matrix(h, mats, 0.0, 1.0)[:, columns]
            bound = gen.bound()
            for b, (kappa, gamma) in enumerate(pairs):
                restricted = kappa * coherent + gamma * dissipator
                # the 2-norm, from the Gram matrix, matters only where the
                # bound is below the 1-norm
                if bound[b] < (1 - 1e-12) * np.abs(restricted).sum(axis=0).max():
                    spec_norm = np.sqrt(np.linalg.eigvalsh(restricted.conj().T @ restricted)[-1])
                    assert bound[b] >= (1 - 1e-12) * spec_norm
                b1 = 2 * np.linalg.norm(gen.m[b], 1) + gamma * np.linalg.norm(gen.gain, 1)
                b2 = 2 * np.linalg.norm(gen.m[b], 2) + gamma * np.linalg.norm(gen.gain, 2)
                assert bound[b] == pytest.approx(min(b1, b2), rel=1e-12)
                smaller.add(b1 < b2)
        assert smaller == {True, False}

    def test_bound_is_one_whole_bound_not_a_mix_of_the_two(self):
        # n = 5 with antipodal sinks: ||G||_1 = 1 < ||G||_2 = 1.73 while
        # ||M||_2 < ||M||_1, so the two norms mixed term by term would
        # read 4.76 and 8.35, below the bound 5.4 (1-norm, kappa = 0.3) and
        # 9.18 (2-norm, kappa = 1)
        spec = make_spec(5, ["11110", "00001"])
        gain, out_degree = jump_gain(build_jump_operators(spec), spec.dim)
        gen = _generator(build_hamiltonian(spec), gain, out_degree, spec.sinks, [(0.3, 1.0), (1.0, 1.0)])
        one_norm = [2 * np.linalg.norm(m, 1) + np.linalg.norm(gain, 1) for m in gen.m]
        two_norm = [2 * np.linalg.norm(m, 2) + np.linalg.norm(gain, 2) for m in gen.m]
        assert one_norm[0] < two_norm[0] and two_norm[1] < one_norm[1]
        assert gen.bound() == pytest.approx([one_norm[0], two_norm[1]], rel=1e-12)


class TestEvolve:
    def test_matches_superoperator_exponential_oracle(self):
        spec = make_spec(3, ["101", "111"])
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=5.0)
        traj = evolve(basis_density(0, 8), spec, params)
        mats = dense_jump_matrices(build_jump_operators(spec), 8)
        oracle = superoperator_populations(
            build_hamiltonian(spec), mats, 1.0, 1.0, basis_density(0, 8), traj.times, expm
        )
        # exact blocks: the gap was 1.7e-15
        assert np.max(np.abs(traj.populations - oracle)) < 1e-12

    def test_rk4_fallback_pair_matches_the_oracle(self):
        # the retrieval demo at gamma = 0.01 is kappa/gamma = 100, beyond
        # every block of whole strides within dt's budget, so it takes two
        # sub-steps of degree 45 per stride (row "substeps-14.238"), where
        # RK4 steps of dt = 0.005 were off by 0.307
        cfg = load_scenario(str(CONFIGS / "retrieval_demo.json"), {"gamma": 0.01, "t_max": 1.0})
        rho0 = density_from_pattern(cfg.initial, cfg.spec.n)
        traj = evolve(rho0, cfg.spec, cfg.params)
        mats = dense_jump_matrices(build_jump_operators(cfg.spec), cfg.spec.dim)
        ratio = cfg.params.kappa / cfg.params.gamma
        oracle = superoperator_populations(build_hamiltonian(cfg.spec), mats, ratio, 1.0, rho0, traj.times, expm)
        assert np.max(np.abs(traj.populations - oracle)) < 1e-9

    def test_symmetry_under_bit_permutation(self):
        # swapping the first two neurons maps the spec onto itself and
        # fixes the initial pattern, so population curves must transform
        spec = make_spec(3, ["011", "101"])
        traj = evolve(basis_density(0, 8), spec, WalkParams(kappa=1, gamma=1, t_max=5))

        def swap12(v):
            b1, b2 = (v >> 2) & 1, (v >> 1) & 1
            return (v & 0b001) | (b2 << 2) | (b1 << 1)

        for v in range(8):
            assert np.max(
                np.abs(traj.populations[:, v] - traj.populations[:, swap12(v)])
            ) < 1e-8

    def test_dissipative_limit_keeps_state_diagonal(self):
        spec = make_spec(3, ["101", "111"])
        # evolve validates via populations; check off-diagonals via rhs invariance
        h = build_hamiltonian(spec)
        r, gen = walk_operands(basis_density(0, 8), h, build_jump_operators(spec), 0.0, 1.0, spec.sinks)
        r = stepped(r, gen, 0.005, steps=600)
        off = r - np.diag(np.diag(r))
        assert np.max(np.abs(off)) < 1e-10

    def test_health_diagnostics_along_run(self):
        spec = make_spec(3, ["101", "111"])
        traj = evolve(basis_density(0, 8), spec, WalkParams(kappa=1.5, gamma=0.5, t_max=20))
        assert np.max(traj.trace_drift) < 1e-9
        assert np.max(traj.hermiticity) < 1e-9
        assert np.min(traj.min_eigenvalue) >= -1e-8
        sink = traj.sink_population()
        assert np.all(np.diff(sink) >= -1e-9)
        assert np.all(np.abs(traj.populations.sum(axis=1) - 1.0) < 1e-9)

    def test_absorption_for_reachable_specs(self):
        rng = np.random.default_rng(101)
        for n in (2, 3, 4):
            spec = random_spec(rng, n)
            traj = evolve(
                basis_density(int(rng.integers(spec.dim)), spec.dim),
                spec,
                WalkParams(kappa=0.8, gamma=1.0, t_max=50),
            )
            assert traj.sink_population()[-1] > 0.99

    def test_coherent_run_conserves_purity_and_avoids_sinks(self):
        spec = make_spec(3, ["101", "111"])
        traj = evolve(
            basis_density(0, 8), spec, WalkParams(kappa=1.0, gamma=0.0, t_max=5, dt=0.002)
        )
        assert np.max(np.abs(traj.purity - traj.purity[0])) < 1e-8
        assert np.max(traj.sink_population()) == 0.0

    def test_stiff_run_raises_diagnostics_error(self):
        spec = make_spec(2, ["11"], [("00", "01", 900.0)])
        with pytest.raises(IntegrationDiagnosticsError) as err:
            evolve(basis_density(0, 4), spec, WalkParams(kappa=400.0, gamma=1.0, t_max=2, dt=0.01))
        assert err.value.dt == pytest.approx(0.01)

    def test_relaxed_rule_lets_coherence_cross_the_watershed(self):
        # comparison mode: with equidistant edges kept, probability leaks
        # into the farther sink's basin and retrieval degrades sharply
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=10.0)
        strict = evolve(basis_density(0, 8), make_spec(3, ["101", "111"], rule="strict"), params)
        relaxed = evolve(basis_density(0, 8), make_spec(3, ["101", "111"], rule="lte"), params)
        assert strict.populations[-1, 7] < 0.1
        assert relaxed.populations[-1, 7] > 0.3

    def test_sampling_grid_covers_horizon(self):
        spec = make_spec(2, ["11"])
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=1.0, dt=0.004, sample_every=0.01)
        traj = evolve(basis_density(0, 4), spec, params)
        # stride rounds to a whole number of 0.004 steps (0.008 here)
        steps, times = sample_grid(params.dt, params.sample_every, params.t_max)
        assert (steps, times.size - 1) == (2, 125)
        assert np.array_equal(traj.times, times)
        assert traj.times.size == 126
        assert traj.times[0] == 0.0
        assert traj.times[1] == pytest.approx(0.008)
        assert traj.times[-1] >= params.t_max - 1e-12

    def test_integrates_from_the_hermitian_part(self):
        # an anti-Hermitian perturbation inside HERMITICITY_TOL is dropped
        # on entry, and the run stays exactly Hermitian from there
        rng = np.random.default_rng(103)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        anti = 0.5 * (x - x.conj().T)
        anti *= 1e-11 / np.max(np.abs(anti))
        rho0 = basis_density(0, 8) + anti
        assert 0.0 < hermiticity_residual(rho0) < HERMITICITY_TOL
        spec = make_spec(3, ["101", "111"])
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=5.0)
        perturbed = evolve(rho0, spec, params)
        exact = evolve(basis_density(0, 8), spec, params)
        assert np.max(np.abs(perturbed.populations - exact.populations)) < 1e-12
        assert np.all(perturbed.hermiticity == 0.0)

    def test_fortran_ordered_density_accepted(self):
        # rho.T = conj(rho) is a valid state with complex coherences, stored
        # Fortran-ordered; it runs as its C-ordered copy and is not written
        rho = np.zeros((8, 8), dtype=complex)
        rho[:7, :7] = random_density(7, np.random.default_rng(107))
        fortran = rho.T
        start = fortran.copy()
        assert fortran.flags.f_contiguous and np.any(fortran.imag != 0.0)
        spec = make_spec(3, ["111"])
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=2.0)
        traj = evolve(fortran, spec, params)
        assert np.array_equal(fortran, start)
        assert np.array_equal(traj.populations, evolve(start, spec, params).populations)

    def test_superposed_initial_state_accepted(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[0, 2] = rho[2, 0] = rho[2, 2] = 0.5
        spec = make_spec(2, ["11"])
        traj = evolve(rho, spec, WalkParams(kappa=1.0, gamma=1.0, t_max=5))
        assert traj.sink_population()[-1] > 0.9


class TestEvolveBatch:
    def test_runs_must_share_the_step_count(self):
        spec = make_spec(2, ["11"])
        base = WalkParams(kappa=1.0, gamma=1.0, t_max=1.0, dt=0.01)
        for other in (replace(base, dt=0.005), replace(base, t_max=2.0), replace(base, sample_every=0.1)):
            with pytest.raises(ConfigurationError, match="dt, sample_every and t_max"):
                evolve_batch(basis_density(0, 4), spec, [base, other])

    @staticmethod
    def failing_slices(slices, h, degrees, k, steps):
        """``_integrate``'s outcomes for the ``slices`` of a three-run stack with two bad runs.

        Slice 0 overflows at the first sample. Slice 2 gains trace at a
        rate of about 8e-6 through a negative decay on |0> (M's diagonal
        gets +4e-6), so it breaches the trace check at the third sample
        (t = 0.15), two samples after slice 0 is gone. Slice b takes
        degree-``degrees[b]`` blocks of ``k`` outputs at stride ``h``, and
        ``steps`` of them per sample of stride 0.05.
        """
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        gain, out_degree = np.zeros((2, 2)), np.array([1.0, 0.0])
        strengths = [(1e200, 0.0), (1.0, 0.0), (1.0, -8e-6)]
        rho = np.repeat(basis_density(0, 2)[None], len(slices), axis=0)
        r, gen = framed_stack(rho, x, gain, out_degree, [strengths[b] for b in slices])
        times = np.arange(41) * 0.05
        ops, strides = gen.operands(slice(None), h, r.dtype), [k] * len(slices)
        return times, _integrate(r, ops, [degrees[b] for b in slices], strides, steps, gen, times, 0.01)

    @pytest.mark.parametrize(
        "h, degrees, k, steps",
        [(0.01, (4, 4, 4), 1, 5), (0.05, (10, 8, 6), 1, 1), (0.05, (24, 20, 16), 4, 1)],
        ids=["sub-steps", "taylor", "block"],
    )
    def test_slices_failing_at_different_samples(self, monkeypatch, h, degrees, k, steps):
        # five degree-4 sub-steps of 0.01 per sample, one Taylor expansion
        # per sample of degrees 10, 8 and 6, or blocks of four samples; no
        # pair of evolve_batch can fail, so each stack calls _integrate with
        # a perturbed operand. Slice 0 overflows at the first sample and
        # alone has the leading terms; slice 2 fails at the third, in the
        # same period as slice 0 on blocks of four and in a later pass on
        # periods of one sample; slice 1 reruns without them and has the
        # bits of its lone run. Without slice 1, the last pass leaves no
        # survivor. The health check takes a period at a time
        checked = checked_chunks(monkeypatch)
        times, outcomes = self.failing_slices([0, 1, 2], h, degrees, k, steps)
        assert max(checked) <= 3 * k
        monkeypatch.undo()
        _, failed = self.failing_slices([0, 2], h, degrees, k, steps)
        for early, late in (outcomes[::2], failed):
            assert isinstance(early, IntegrationDiagnosticsError) and early.t == times[1]
            assert early.largest_entry == np.inf and "largest entry inf" in str(early)
            assert isinstance(late, IntegrationDiagnosticsError) and late.t == times[3]
            assert late.trace_drift > 1e-6 and late.dt == 0.01
        _, (lone,) = self.failing_slices([1], h, degrees, k, steps)
        kept = outcomes[1]
        assert kept.keys() == lone.keys()
        for name in kept:
            assert np.array_equal(kept[name], lone[name]), name

    def test_blocks_allocate_no_state_stack(self, monkeypatch):
        # 200 degree-4 rounds of an n = 4 stack of 8 states: the terms and
        # samples, whose last row is the stages' scratch, are _integrate's
        # own, made once per run, and each call gets one round bound once
        # on them (its R and samples at the same address, shape and
        # strides), so the traced peak over the blocks stays below the size
        # of one state stack
        spec = make_spec(4, ["0110", "1111"])
        h = build_hamiltonian(spec)
        gain, out_degree = jump_gain(build_jump_operators(spec), spec.dim)
        strengths = [(k, 1.0) for k in np.linspace(0.2, 3.0, 8)]
        rho = np.repeat(basis_density(0, spec.dim)[None], 8, axis=0)
        r, gen = framed_stack(rho, h, gain, out_degree, strengths, spec.sinks)
        bind, step, buffers, marks = lindblad._round, lindblad.rk4_step, [], {}

        def bound(terms, samples, *rest):
            return bind(terms, samples, *rest), terms[0], samples

        def measured(round_):
            if not buffers:
                tracemalloc.reset_peak()
                marks["start"] = tracemalloc.get_traced_memory()[0]
            # Whether the round and its layout are the first call's: holding
            # 200 views would itself count towards the peak.
            operands, state, samples = round_
            layout = [(x.__array_interface__["data"][0], x.shape, x.strides) for x in (state, samples)]
            buffers.append(round_ is marks.setdefault("round", round_) and layout == marks.setdefault("layout", layout))
            step(operands)
            marks["peak"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(lindblad, "_round", bound)
        monkeypatch.setattr(lindblad, "rk4_step", measured)
        tracemalloc.start()
        try:
            ops = gen.operands(slice(None), 0.005, r.dtype)
            outcomes = _integrate(r, ops, [4] * 8, [1] * 8, 200, gen, np.array([0.0, 1.0]), 0.005)
        finally:
            tracemalloc.stop()
        assert len(buffers) == 200
        assert all(isinstance(o, dict) for o in outcomes)
        assert marks["peak"] - marks["start"] < rho.nbytes
        assert all(buffers)

    @pytest.mark.parametrize(
        "h, degrees, k, steps, samples",
        [(0.005, [4] * 8, 1, 200, 1), (0.05, [50, 45, 40, 35, 35, 29, 25, 25], 4, 1, 200)],
        ids=["sub-steps", "block"],
    )
    def test_blocks_allocate_no_real_state_stack(self, monkeypatch, h, degrees, k, steps, samples):
        # the blocks run on the real R, half the size of the complex input
        # stack that bounds the test above; no block allocates one R
        # either, whether it is one degree-4 sub-step or four samples at degrees 50
        # down to 25
        spec = make_spec(4, ["0110", "1111"])
        hamiltonian = build_hamiltonian(spec)
        gain, out_degree = jump_gain(build_jump_operators(spec), spec.dim)
        strengths = [(x, 1.0) for x in np.linspace(4.0, 0.2, 8)]
        rho = np.repeat(basis_density(0, spec.dim)[None], 8, axis=0)
        r, gen = framed_stack(rho, hamiltonian, gain, out_degree, strengths, spec.sinks)
        step, peaks = lindblad.rk4_step, []

        def measured(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)

        monkeypatch.setattr(lindblad, "rk4_step", measured)
        times = np.arange(samples + 1) * h * steps
        tracemalloc.start()
        try:
            outcomes = _integrate(r, gen.operands(slice(None), h, r.dtype), degrees, [k] * 8, steps, gen, times, 0.005)
        finally:
            tracemalloc.stop()
        assert len(peaks) == samples * steps // k
        assert all(isinstance(o, dict) for o in outcomes)
        assert max(peaks) < rho.real.nbytes

    def test_sub_step_pairs_match_the_oracle(self):
        # at kappa/gamma = 20 no block of one, two, four or eight strides
        # fits below dt's budget of 40 stages a stride, so the pair takes
        # one-stride blocks at degree 40 on the sub-step budget (row
        # "fallback"), where RK4 steps of dt = 0.005 were off by 1.1e-3; 40
        # takes two sub-steps of degree 40 per stride, on a stack of its
        # own. At dt = 0.0025 (a budget of 80, 240 on sub-steps) 80 takes
        # three sub-steps of degree 45
        spec = make_spec(4, ["1011", "1111"])
        rho0 = basis_density(vertex_index("0000"), spec.dim)
        mats = dense_jump_matrices(build_jump_operators(spec), spec.dim)
        for dt, kappas in ((0.005, (20.0, 40.0)), (0.0025, (80.0,))):
            params = [WalkParams(kappa=kappa, gamma=1.0, t_max=2.0, dt=dt) for kappa in kappas]
            for kappa, traj in zip(kappas, evolve_batch(rho0, spec, params)):
                oracle = superoperator_populations(build_hamiltonian(spec), mats, kappa, 1.0, rho0, traj.times, expm)
                assert np.max(np.abs(traj.populations - oracle)) < 1e-12

    @pytest.mark.parametrize("sinks, kappa", [(["0110", "1111"], 12.0), (["1011", "1111"], 17.0)])
    def test_pair_below_the_2_norm_edge_takes_exact_blocks(self, sinks, kappa):
        # on their 1-norm bounds alone no block of whole strides would fit
        # dt = 0.005's budget (RK4 steps of dt were 1.4e-4 and 5.2e-4 off
        # the oracle), but their 2-norm bounds (88.6 and 92.0) fit two
        # strides at degree 55 (row "fallback" pins the second): the gaps
        # were 6.3e-15 and 4.3e-14
        spec = make_spec(4, sinks)
        rho0 = basis_density(vertex_index("0000"), spec.dim)
        traj = evolve(rho0, spec, WalkParams(kappa=kappa, gamma=1.0, t_max=2.0))
        mats = dense_jump_matrices(build_jump_operators(spec), spec.dim)
        oracle = superoperator_populations(build_hamiltonian(spec), mats, kappa, 1.0, rho0, traj.times, expm)
        assert np.max(np.abs(traj.populations - oracle)) < 1e-12

    def test_dropped_point_leaves_the_survivors_bits(self, monkeypatch):
        # exact blocks keep every pair of evolve_batch physical, so failures go
        # through _integrate with a perturbed operand: a gain g on M's entry
        # at |0000> makes a pair's trace grow from the maximally mixed
        # state. Of five pairs in blocks of eight strides at degrees 55 down
        # to 29, g = 1e-3, 8e-5 and 1e-5 fail at the first, third and 26th
        # samples: the first two end the first pass in its first period,
        # and the last ends the second inside a block, so the survivors run
        # a third. The health check takes two states at a time, so a
        # period's verdicts and fields are read across chunks. Each
        # survivor has the bits of its lone run
        spec = make_spec(4, ["0110", "1111"])
        gain, out_degree = jump_gain(build_jump_operators(spec), spec.dim)
        r, gen = framed_stack(
            np.eye(spec.dim) / spec.dim, build_hamiltonian(spec), gain, out_degree,
            [(kappa, 1.0) for kappa in (3.0, 2.0, 1.5, 1.0, 0.5)], spec.sinks,
        )
        degrees = [m for _, _, m in (lindblad._block(x * 0.05, 10) for x in gen.bound().tolist())]
        m, g = gen.operands(slice(None), 0.05, r.dtype)
        m[:, 0, 0] += 0.05 * np.array([1e-3, 8e-5, 0.0, 1e-5, 0.0])
        times = np.arange(41) * 0.05

        def run(pairs):
            stack = np.broadcast_to(r, (len(pairs), *r.shape))
            ops, strides = (m[pairs], g[pairs]), [MAX_BLOCK_STRIDES] * len(pairs)
            return _integrate(stack, ops, [degrees[b] for b in pairs], strides, 1, gen, times, 0.005)

        checked = checked_chunks(monkeypatch, 2 * r.nbytes)
        outcomes = run([0, 1, 2, 3, 4])
        assert max(checked) == 2
        monkeypatch.undo()
        assert degrees == [55, 45, 40, 35, 29]
        assert [o.t for o in outcomes if isinstance(o, IntegrationDiagnosticsError)] == list(times[[1, 3, 26]])
        for b in (2, 4):
            (alone,) = run([b])
            assert outcomes[b].keys() == alone.keys()
            for name in alone:
                assert np.array_equal(outcomes[b][name], alone[name]), name

    def test_empty_batch(self):
        assert evolve_batch(basis_density(0, 4), make_spec(2, ["11"]), []) == []

    def test_equal_strength_ratios_share_one_integration(self):
        # kappa/gamma = 0.5 twice; in 1/gamma units the two runs are one
        # walk, integrated once (row "sweep-n4" has such pairs)
        spec = make_spec(3, ["101", "111"])
        first = WalkParams(kappa=0.5, gamma=1.0, t_max=2.0)
        other = WalkParams(kappa=1.0, gamma=2.0, t_max=2.0)
        distinct = WalkParams(kappa=1.0, gamma=1.0, t_max=2.0)
        a, b, c = evolve_batch(basis_density(0, 8), spec, [first, distinct, other])
        assert (a.params, b.params, c.params) == (first, distinct, other)
        assert np.array_equal(a.populations, c.populations)
        assert not np.shares_memory(a.populations, c.populations)
        single = evolve(basis_density(0, 8), spec, distinct)
        assert np.array_equal(b.populations, single.populations)


class TestSinkBlock:
    def test_block_minimum_is_the_full_minimum(self):
        # a state with no sink coherence is block diagonal, so the non-sink
        # block and the sink populations hold all of its eigenvalues
        rng = np.random.default_rng(109)
        sink_held_minimum = []
        for _ in range(20):
            spec = random_spec(rng, int(rng.integers(2, 5)))
            live, sinks = _split(spec.dim, spec.sinks)
            weights = rng.dirichlet(np.full(sinks.size + 1, 0.3), size=4)
            rho = np.zeros((4, spec.dim, spec.dim), dtype=complex)
            for r, w in zip(rho, weights):
                r[np.ix_(live, live)] = w[0] * random_density(live.size, rng)
                r[sinks, sinks] = w[1:]
            _, smallest = _health(rho, _flat_block(live, spec.dim), sinks)
            full = np.linalg.eigvalsh(rho).min(axis=1)
            assert np.max(np.abs(smallest - full)) < 1e-15
            sink_held_minimum += list(weights[:, 1:].min(axis=1) == smallest)
        # both the block and the sink populations held the minimum somewhere
        assert 0 < sum(sink_held_minimum) < len(sink_held_minimum)

    @pytest.mark.parametrize("case", ["contiguous", "non-finite", "validate"])
    def test_one_copy_gather_is_the_two_step_take(self, monkeypatch, case):
        # the non-sink blocks that reach eigvalsh, gathered with one take of
        # the flat index, equal np.take(m[:, live], live, axis=2) bit for bit:
        # on a contiguous n = 6 stack of 8 states, on one whose third slice
        # holds a NaN (the finite slices are gathered from m[finite]), and on
        # validate_density's strided view herm.real[None] of one state. The
        # smallest eigenvalues are those of the two-step blocks
        rng = np.random.default_rng(157)
        spec = make_spec(6, ["011010", "110111"])
        live, sinks = _split(spec.dim, spec.sinks)
        seen, eigvalsh = [], np.linalg.eigvalsh

        def recorded(a):
            seen.append(a.copy())
            return eigvalsh(a)

        stack = np.stack([random_framed_state(spec, rng, real=True) for _ in range(8)])
        if case == "non-finite":
            stack[2, 5, 9] = np.nan
        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        if case == "validate":
            rho = stack[0]
            validate_density(rho, spec.sinks)
            stack = (0.5 * (rho + rho.T))[None]
        else:
            _, smallest = _health(stack, _flat_block(live, spec.dim), sinks)
        monkeypatch.undo()
        finite = np.isfinite(stack).all(axis=(1, 2))
        expected = np.take(stack[finite][:, live], live, axis=2)
        (block,) = seen
        assert block.shape == expected.shape and np.array_equal(block, expected)
        if case != "validate":
            sink_populations = np.diagonal(stack[finite], axis1=1, axis2=2)[:, sinks].min(axis=1)
            assert np.array_equal(smallest[finite], np.minimum(eigvalsh(expected).min(axis=1), sink_populations))
            assert np.isnan(smallest[~finite]).all() and finite.sum() == (7 if case == "non-finite" else 8)

    def test_sink_coherence_rejected(self):
        spec = make_spec(3, ["101", "111"])
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=1.0)
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = rho[0, 5] = rho[5, 0] = rho[5, 5] = 0.5
        with pytest.raises(ConfigurationError, match="coherence involving sink 101"):
            evolve_batch(rho, spec, [params])
        # an anti-Hermitian sink coherence within HERMITICITY_TOL is not
        # part of the Hermitian part the walk integrates
        rho = basis_density(0, 8)
        rho[0, 7], rho[7, 0] = 1e-11j, 1e-11j
        (traj,) = evolve_batch(rho, spec, [params])
        assert isinstance(traj, Trajectory)

    def test_steps_keep_sink_coherences_zero(self):
        # one degree-50 block of a stride of 1 (kappa/gamma = 0.5) and 200
        # degree-4 steps of 0.005 (kappa/gamma = 2) from a superposition of
        # non-sink patterns: the sinks fill up, and their rows and columns
        # stay exactly zero off the diagonal
        spec = make_spec(4, ["0110", "1111"])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        amplitudes = np.zeros(spec.dim, dtype=complex)
        amplitudes[[0, 1, 3, 8]] = [0.5, 0.5j, -0.5, 0.5]
        rho0 = np.outer(amplitudes, amplitudes.conj())
        states = []
        for kappa, stride, degree, steps in ((0.5, 1.0, 50, 1), (2.0, 0.005, 4, 200)):
            r, gen = walk_operands(rho0, h, jumps, kappa, 1.0, spec.sinks)
            for _ in range(steps):
                r = stepped(r, gen, stride, degree)
                states.append(r)
        for r in states:
            for s in spec.sinks:
                assert np.all(np.delete(r[s], s) == 0.0) and np.all(np.delete(r[:, s], s) == 0.0)
        for r in (states[0], states[-1]):
            assert np.all(r[list(spec.sinks), list(spec.sinks)].real > 0.0)


class TestAtFourNeurons:
    # kappa, gamma > 0 against the exponential of the 256-dim superoperator:
    # a basis start under the default H steps a real state, and unequal
    # non-sink self-loops make it complex
    @pytest.mark.parametrize(
        "overrides", [(), [("0000", "0000", 2.0), ("0101", "0101", 0.5)]], ids=["real", "complex"]
    )
    def test_matches_superoperator_exponential_oracle(self, overrides):
        spec = make_spec(4, ["0110", "1111"], overrides)
        rho0 = basis_density(0, spec.dim)
        traj = evolve(rho0, spec, WalkParams(kappa=1.3, gamma=0.7, t_max=5.0))
        mats = dense_jump_matrices(build_jump_operators(spec), spec.dim)
        oracle = superoperator_populations(
            build_hamiltonian(spec), mats, 1.3 / 0.7, 1.0, rho0, traj.times, expm
        )
        # blocks of Taylor expansions, exact to double precision: the gap
        # was 3.8e-15 (real, eight strides at degree 45) and 2.0e-15
        # (complex, eight at degree 50), as with four strides at degrees 29
        # and 35, against RK4's 1.4e-8
        assert np.max(np.abs(traj.populations - oracle)) < 1e-12


class TestAtSixNeurons:
    # the CLI's largest size, in the two limits that have an exact answer
    # independent of the integrator
    spec = make_spec(6, ["011010", "110111"])
    start = vertex_index("100001")

    def test_blocks_of_eight_strides_match_blocks_of_one(self):
        # at kappa = gamma = 1, ||M||_1 = 9 and ||G||_1 = 6 bound L by 24 in
        # the 1-norm, but ||M||_2 = 6.22 and ||G||_2 = 4.04 bound it by 16.49
        # in the 2-norm, so eight strides of 0.05 need theta_m >= 6.60: the
        # walk takes blocks of eight strides at degree 45 (row
        # "simulate-n6"); t_max = 1 is 20 samples, two blocks and a cut
        # third. Its populations match those of one-stride blocks at degree
        # 30, exact for a stride norm up to 3.54, to 3.3e-16
        rho0 = basis_density(self.start, self.spec.dim)
        traj = evolve(rho0, self.spec, WalkParams(kappa=1.0, gamma=1.0, t_max=1.0))
        h, jumps = build_hamiltonian(self.spec), build_jump_operators(self.spec)
        r, gen = walk_operands(rho0, h, jumps, 1.0, 1.0, self.spec.sinks)
        single = [populations(r)]
        for _ in range(20):
            r = stepped(r, gen, 0.05, degree=30)
            single.append(populations(r))
        assert np.max(np.abs(traj.populations - single)) < 1e-14

    def test_coherent_limit_matches_the_unitary(self):
        # gamma = 0: rho(t) = U rho0 U^dag with U = V exp(-i t w) V^T from
        # eigh of the real H, so the populations are |U[:, start]|^2; the
        # gap was 6.0e-13 with blocks of eight strides at degree 35 (bound
        # 11.7 in the 2-norm, 12 in the 1-norm; row "n6-limits"), as with
        # blocks of four at degree 25, where RK4 at dt = 0.005 is off by 4e-8
        # (||H|| = 6.8)
        h = build_hamiltonian(self.spec)
        traj = evolve(
            basis_density(self.start, self.spec.dim), self.spec, WalkParams(kappa=1.0, gamma=0.0, t_max=5.0)
        )
        w, v = np.linalg.eigh(h)
        amplitudes = (v * np.exp(-1j * np.outer(traj.times, w))[:, None, :]) @ v[self.start]
        assert traj.times[-1] == pytest.approx(5.0)
        assert np.max(np.abs(traj.populations - np.abs(amplitudes) ** 2)) < 1e-11

    def test_dissipative_limit_matches_the_chain(self):
        # kappa = 0: the populations follow the classical chain sample by
        # sample; the gap was 4.4e-16 with blocks of eight strides at degree
        # 35 (bound 10.0 in the 2-norm, 12 in the 1-norm; row "n6-limits"),
        # as with blocks of four at degree 23, where RK4 at dt = 0.005 is off
        # by about 2e-10
        params = WalkParams(kappa=0.0, gamma=1.0, t_max=5.0)
        traj = evolve(basis_density(self.start, self.spec.dim), self.spec, params)
        q = rate_matrix_from_jumps(build_jump_operators(self.spec), self.spec.dim)
        pi0 = np.zeros(self.spec.dim)
        pi0[self.start] = 1.0
        chain = ctmc_samples(q, pi0, traj.times[1], traj.times.size - 1)
        assert np.max(np.abs(traj.populations - chain)) < 1e-13


class TestMixingTime:
    def _constant_trajectory(self):
        zeros = np.zeros(5)
        return Trajectory(
            times=np.arange(5) * 0.05, populations=np.tile([0.0, 1.0], (5, 1)), trace_drift=zeros,
            min_eigenvalue=zeros, purity=np.ones(5), hermiticity=zeros, sink_indices=(1,),
            params=WalkParams(kappa=0.0, gamma=1.0, t_max=0.2),
        )

    def test_constant_trajectory_settles_immediately(self):
        assert mixing_time(self._constant_trajectory()) == 0.0

    def test_unabsorbed_walk_returns_sentinel(self):
        spec = make_spec(3, ["101", "111"])
        traj = evolve(basis_density(0, 8), spec, WalkParams(kappa=1.0, gamma=0.0, t_max=5))
        assert mixing_time(traj) == 0.0

    def test_retrieval_scenario_settles_in_a_few_units(self):
        spec = make_spec(3, ["101", "111"])
        traj = evolve(basis_density(0, 8), spec, WalkParams(kappa=1, gamma=1, t_max=50))
        t_mix = mixing_time(traj)
        assert 0.0 < t_mix < 15.0


class TestSinkParity:
    """Retrieval is exact only when the two sinks are an odd Hamming distance apart.

    At odd distance every edge between the two basins joins patterns equally
    far from the sink set, so the strict rule drops it from H and from the
    jumps, and no amplitude reaches the far sink. At even distance no edge is
    equidistant, and coherence carries part of the walker to the far sink.
    """

    @staticmethod
    def sink_populations(n, near, far, start, kappas):
        spec = make_spec(n, [near, far])
        runs = evolve_batch(
            density_from_pattern(start, n), spec,
            [WalkParams(kappa=k, gamma=1.0, t_max=20.0) for k in kappas],
        )
        return [(r.populations[:, vertex_index(near)], r.populations[:, vertex_index(far)])
                for r in runs]

    @pytest.mark.parametrize("n, near, far, start", [
        (4, "1011", "1111", "0000"),
        (3, "101", "111", "000"),
    ])
    def test_odd_distance_keeps_the_far_sink_empty(self, n, near, far, start):
        for near_pop, far_pop in self.sink_populations(n, near, far, start, [0.5, 1.0, 4.0]):
            assert np.all(far_pop == 0.0)
            assert near_pop[-1] > 0.999

    def test_even_distance_leaks_to_the_far_sink_under_coherence(self):
        # at kappa = gamma the far sink ends at 0.3254, at t = 20 as at t = 40
        (_, dissipative), (_, coherent) = self.sink_populations(
            4, "0011", "1111", "0001", [0.0, 1.0]
        )
        assert np.all(dissipative == 0.0)
        assert coherent[-1] > 0.25


class TestSchedule:
    @pytest.mark.parametrize("row", SCHEDULE, ids=lambda row: row.id)
    def test_schedule(self, monkeypatch, row):
        # every row of the table in tests/walk_schedules.py gives what it pins
        assert row.schedule(monkeypatch) == row.pinned

    @pytest.mark.parametrize("walk", WALKS, ids=lambda walk: walk.id)
    def test_batch_matches_lone_runs(self, walk):
        # each point of the batch has the bits of its lone evolve, and a
        # failed point the text of its lone error (a batch of one is its
        # lone run); so does the batch to a horizon two periods of
        # MAX_BLOCK_STRIDES longer, on its leading samples: a cut period's
        # samples do not depend on where it is cut
        spec, rho0 = walk.spec(), walk.rho0()
        batch = evolve_batch(rho0, spec, walk.params(walk.t_max))
        alone = batch if len(batch) == 1 else [lone(rho0, spec, params) for params in walk.params(walk.t_max)]
        longer = evolve_batch(rho0, spec, walk.params(walk.t_max + 2 * MAX_BLOCK_STRIDES * walk.sample_every))
        for outcomes in (batch, longer):
            for outcome, expected in zip(outcomes, alone, strict=True):
                assert_same(outcome, expected)
