import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from patternwalks import lindblad
from patternwalks.constants import HERMITICITY_TOL
from patternwalks.errors import (
    ConfigurationError,
    ContractViolationError,
    IntegrationDiagnosticsError,
)
from patternwalks.hypercube import (
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
    _density,
    _health,
    _integrate,
    _scaled_generator,
    _split,
    _stage,
    basis_density,
    density_from_pattern,
    evolve,
    evolve_batch,
    mixing_time,
    populations,
    purity,
    validate_density,
)
from patternwalks.markov import ctmc_evolve, ctmc_samples, rate_matrix_from_jumps
from patternwalks.numerics import expm, hermiticity_residual

from oracles import (
    dense_jump_matrices,
    dense_master_rhs,
    random_density,
    superoperator_populations,
)


def real_state(rho):
    """``Y = Re rho + Im rho``, the real state ``_integrate`` steps for a Hermitian ``rho``."""
    return rho.real + rho.imag


def walk_rhs(y, h, jumps, kappa, gamma, c=1.0, out=None):
    """``c`` times the stage evolve integrates on the real state ``y``, with the
    generator evolve derives from ``jumps``."""
    gain, out_degree = jump_gain(jumps, y.shape[-1])
    out = np.empty_like(y) if out is None else out
    operands = _scaled_generator(h, out_degree, kappa, gamma, c)
    return _stage(y, *operands, gain, out, np.empty_like(y), np.empty_like(y))


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

    def test_negative_strength_rejected(self):
        with pytest.raises(ConfigurationError):
            WalkParams(kappa=-0.1, gamma=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kappa", float("nan")),
            ("kappa", float("inf")),
            ("gamma", float("nan")),
            ("gamma", float("inf")),
            ("t_max", float("inf")),
            ("sample_every", float("inf")),
        ],
    )
    def test_non_finite_number_rejected(self, field, value):
        values = {"kappa": 1.0, "gamma": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be a finite number"):
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


class TestRhs:
    def test_zero_strengths_give_zero(self):
        spec = make_spec(2, ["11"])
        h = build_hamiltonian(spec)
        y = real_state(basis_density(0, 4))
        out = walk_rhs(y, h, build_jump_operators(spec), 0.0, 0.0)
        assert np.all(out == 0.0)

    def test_commuting_state_gives_zero_without_dissipation(self):
        h = np.diag([1.0, 2.0, 3.0])
        y = np.diag([0.2, 0.3, 0.5])
        out = walk_rhs(y, h, [], 1.0, 0.0)
        assert np.max(np.abs(out)) < 1e-15

    def test_two_level_amplitude_damping_by_hand(self):
        y = real_state(basis_density(0, 2))
        h = np.zeros((2, 2))
        out = walk_rhs(y, h, [JumpOperator(src=0, dst=1)], 0.0, 1.0)
        assert np.allclose(out, np.diag([-1.0, 1.0]))

    def test_matches_dense_operator_algebra(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            spec = random_spec(rng, n)
            jumps = build_jump_operators(spec)
            h = build_hamiltonian(spec)
            rho = random_density(spec.dim, rng)
            kappa, gamma = rng.uniform(0, 2, size=2)
            fast = _density(walk_rhs(real_state(rho), h, jumps, kappa, gamma))
            dense = dense_master_rhs(rho, h, dense_jump_matrices(jumps, spec.dim), kappa, gamma)
            assert np.max(np.abs(fast - dense)) < 1e-12

    def test_output_is_hermitian(self):
        # the stage keeps Y's split: its symmetric part is the real part of
        # the dense generator's output and its antisymmetric part the
        # imaginary part; the density matrix rebuilt from it is exactly
        # Hermitian
        rng = np.random.default_rng(89)
        spec = make_spec(3, ["101", "111"])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        rho = random_density(8, rng)
        out = walk_rhs(real_state(rho), h, jumps, 1.3, 0.7)
        dense = dense_master_rhs(rho, h, dense_jump_matrices(jumps, 8), 1.3, 0.7)
        assert np.max(np.abs(0.5 * (out + out.T) - dense.real)) < 1e-12
        assert np.max(np.abs(0.5 * (out - out.T) - dense.imag)) < 1e-12
        rebuilt = _density(out)
        assert np.array_equal(rebuilt, rebuilt.conj().T)

    def test_scaled_stage_written_over_its_input(self):
        rng = np.random.default_rng(91)
        spec = make_spec(3, ["101", "111"])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        rho = random_density(8, rng)
        y = real_state(rho)
        apart = walk_rhs(y, h, jumps, 1.3, 0.7, c=0.25)
        inplace = y.copy()
        assert walk_rhs(inplace, h, jumps, 1.3, 0.7, c=0.25, out=inplace) is inplace
        assert np.array_equal(inplace, apart)
        dense = dense_master_rhs(rho, h, dense_jump_matrices(jumps, 8), 1.3, 0.7)
        assert np.max(np.abs(_density(apart) - 0.25 * dense)) < 1e-12

    def test_stage_on_a_stack_of_strengths(self):
        # three slices share H and G but not kappa and gamma; each matches
        # the dense generator and its own lone evaluation bit for bit, and
        # the density matrices rebuilt from the stacked output are exactly
        # Hermitian
        rng = np.random.default_rng(107)
        spec = make_spec(3, ["101", "111"])
        h, jumps = build_hamiltonian(spec), build_jump_operators(spec)
        gain, out_degree = jump_gain(jumps, 8)
        kappa = np.array([0.0, 1.3, 2.5])[:, None, None]
        gamma = np.array([1.0, 0.7, 0.0])[:, None, None]
        rho = np.stack([random_density(8, rng) for _ in range(3)])
        y = real_state(rho)
        operands = _scaled_generator(h, out_degree, kappa, gamma, 0.25)
        out = _stage(y, *operands, gain, np.empty_like(y), np.empty_like(y), np.empty_like(y))
        rebuilt = _density(out)
        assert np.array_equal(rebuilt, rebuilt.conj().swapaxes(-1, -2))
        mats = dense_jump_matrices(jumps, 8)
        for b in range(3):
            k, g = kappa[b, 0, 0], gamma[b, 0, 0]
            dense = dense_master_rhs(rho[b], h, mats, k, g)
            assert np.max(np.abs(rebuilt[b] - 0.25 * dense)) < 1e-12
            assert np.array_equal(out[b], walk_rhs(y[b], h, jumps, k, g, c=0.25))

    def test_real_state_round_trip(self):
        # Y -> rho -> Y returns the diagonal, and every entry of a symmetric
        # or an antisymmetric pair, exactly; any other entry comes back
        # within one rounding of the larger entry of its pair (no pair of
        # doubles S, A gives both 1 = S + A and 1 + 2^-52 = S - A), and the
        # rebuilt rho is exactly Hermitian
        rng = np.random.default_rng(113)
        y = rng.normal(size=(3, 8, 8)) * np.logspace(-8, 2, 8)
        rho = _density(y)
        assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
        back = real_state(rho)
        pair = np.maximum(np.abs(y), np.abs(y.swapaxes(-1, -2)))
        assert np.all(np.abs(back - y) <= np.spacing(pair))
        assert np.array_equal(np.diagonal(back, axis1=-2, axis2=-1), np.diagonal(y, axis1=-2, axis2=-1))
        for paired in (y + y.swapaxes(-1, -2), y - y.swapaxes(-1, -2)):
            assert np.array_equal(real_state(_density(paired)), paired)


class TestEvolve:
    def test_nearest_sink_retrieval(self):
        spec = make_spec(3, ["101", "111"])
        traj = evolve(basis_density(0, 8), spec, WalkParams(kappa=1, gamma=1, t_max=10))
        at2 = np.argmin(np.abs(traj.times - 2.0))
        assert traj.populations[at2, 5] > 0.5
        assert traj.populations[-1, 5] > 0.9
        assert traj.populations[-1, 7] < 0.1

    def test_matches_superoperator_exponential_oracle(self):
        spec = make_spec(3, ["101", "111"])
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=5.0)
        traj = evolve(basis_density(0, 8), spec, params)
        mats = dense_jump_matrices(build_jump_operators(spec), 8)
        oracle = superoperator_populations(
            build_hamiltonian(spec), mats, 1.0, 1.0, basis_density(0, 8), traj.times, expm
        )
        assert np.max(np.abs(traj.populations - oracle)) < 1e-6

    def test_equidistant_sinks_split_symmetrically(self):
        spec = make_spec(3, ["011", "101"])
        traj = evolve(basis_density(0, 8), spec, WalkParams(kappa=1, gamma=1, t_max=10))
        assert np.max(np.abs(traj.populations[:, 3] - traj.populations[:, 5])) < 1e-8
        assert abs(traj.populations[-1, 3] - 0.5) < 0.05

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

    def test_dissipative_limit_matches_ctmc_oracle(self):
        rng = np.random.default_rng(97)
        for n in (2, 3):
            spec = random_spec(rng, n)
            jumps = build_jump_operators(spec)
            params = WalkParams(kappa=0.0, gamma=1.0, t_max=8.0)
            traj = evolve(basis_density(0, spec.dim), spec, params)
            q = rate_matrix_from_jumps(jumps, spec.dim)
            pi0 = np.zeros(spec.dim)
            pi0[0] = 1.0
            for idx in range(0, traj.times.size, 20):
                classical = ctmc_evolve(q, pi0, traj.times[idx])
                assert np.max(np.abs(traj.populations[idx] - classical)) < 1e-6

    def test_dissipative_limit_keeps_state_diagonal(self):
        spec = make_spec(3, ["101", "111"])
        params = WalkParams(kappa=0.0, gamma=1.0, t_max=3.0)
        # evolve validates via populations; check off-diagonals via rhs invariance
        y = real_state(basis_density(0, 8))
        h = build_hamiltonian(spec)
        jumps = build_jump_operators(spec)
        from patternwalks.numerics import rk4_step

        def apply(x, c, out):
            return walk_rhs(x, h, jumps, 0.0, 1.0, c, out)

        for _ in range(600):
            rk4_step(apply, y, 0.005)
        off = y - np.diag(np.diag(y))
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
        spec = make_spec(3, ["101", "111"])
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=10.0)
        strict = evolve(basis_density(0, 8), spec, params, rule="strict")
        relaxed = evolve(basis_density(0, 8), spec, params, rule="lte")
        assert strict.populations[-1, 7] < 0.1
        assert relaxed.populations[-1, 7] > 0.3

    def test_sampling_grid_covers_horizon(self):
        spec = make_spec(2, ["11"])
        params = WalkParams(kappa=1.0, gamma=1.0, t_max=1.0, dt=0.004, sample_every=0.01)
        traj = evolve(basis_density(0, 4), spec, params)
        # stride rounds to a whole number of 0.004 steps (0.008 here)
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
        for other in (
            replace(base, dt=0.005),
            replace(base, t_max=2.0),
            replace(base, sample_every=0.1),
        ):
            with pytest.raises(ConfigurationError, match="dt, sample_every and t_max"):
                evolve_batch(basis_density(0, 4), spec, [base, other])

    def test_slices_failing_at_different_samples(self):
        # slice 0 overflows at the first sample; slice 2 gains trace at a
        # rate of about 8e-6 through a negative decay on |0> (K's diagonal
        # gets +4e-6 i), so it breaches the trace check two samples after
        # slice 0 is gone; slice 1 runs as if alone
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        gain, out_degree = np.zeros((2, 2)), np.array([1.0, 0.0])
        strengths = [(1e200, 0.0), (1.0, 0.0), (1.0, -8e-6)]
        rho = np.repeat(basis_density(0, 2)[None], 3, axis=0)
        times, outcomes = _integrate(rho, x, gain, out_degree, strengths, (), 0.01, 5, 40)
        early, kept, late = outcomes
        assert isinstance(early, IntegrationDiagnosticsError) and early.t == times[1]
        assert isinstance(late, IntegrationDiagnosticsError) and late.t > times[1]
        assert late.trace_drift > 1e-6
        _, (lone,) = _integrate(rho[1:2], x, gain, out_degree, strengths[1:2], (), 0.01, 5, 40)
        assert kept.keys() == lone.keys()
        for name in kept:
            assert np.array_equal(kept[name], lone[name]), name

    def test_steps_allocate_no_state_stack(self, monkeypatch):
        # 200 steps of an n = 4 stack of 8 states: the step's stage stacks
        # are _integrate's own, so the traced peak over the steps stays
        # below the size of one state stack
        spec = make_spec(4, ["0110", "1111"])
        h = build_hamiltonian(spec)
        gain, out_degree = jump_gain(build_jump_operators(spec), spec.dim)
        strengths = [(k, 1.0) for k in np.linspace(0.2, 3.0, 8)]
        rho = np.repeat(basis_density(0, spec.dim)[None], 8, axis=0)
        step, calls, marks = lindblad.rk4_step, [], {}

        def measured(apply, y, dt):
            if not calls:
                tracemalloc.reset_peak()
                marks["start"] = tracemalloc.get_traced_memory()[0]
            calls.append(None)
            y = step(apply, y, dt)
            marks["peak"] = tracemalloc.get_traced_memory()[1]
            return y

        monkeypatch.setattr(lindblad, "rk4_step", measured)
        tracemalloc.start()
        try:
            _, outcomes = _integrate(rho, h, gain, out_degree, strengths, spec.sinks, 0.005, 200, 1)
        finally:
            tracemalloc.stop()
        assert len(calls) == 200
        assert all(isinstance(o, dict) for o in outcomes)
        assert marks["peak"] - marks["start"] < rho.nbytes

    def test_steps_allocate_no_real_state_stack(self, monkeypatch):
        # the steps run on the real Y, half the size of the complex input
        # stack that bounds the test above; no step allocates one Y either
        spec = make_spec(4, ["0110", "1111"])
        h = build_hamiltonian(spec)
        gain, out_degree = jump_gain(build_jump_operators(spec), spec.dim)
        strengths = [(k, 1.0) for k in np.linspace(0.2, 3.0, 8)]
        rho = np.repeat(basis_density(0, spec.dim)[None], 8, axis=0)
        step, peaks = lindblad.rk4_step, []

        def measured(apply, y, dt):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            y = step(apply, y, dt)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return y

        monkeypatch.setattr(lindblad, "rk4_step", measured)
        tracemalloc.start()
        try:
            _integrate(rho, h, gain, out_degree, strengths, spec.sinks, 0.005, 200, 1)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 200
        assert max(peaks) < rho.real.nbytes

    def test_dropped_point_leaves_the_survivors_bits(self):
        # kappa = 150 goes unphysical under RK4 at dt = 0.005 and is dropped
        # from between the two finite points
        spec = make_spec(4, ["0110", "1111"])
        rho0 = basis_density(0, spec.dim)
        finite = [WalkParams(kappa=0.5, gamma=1.0, t_max=2.0), WalkParams(kappa=2.0, gamma=1.0, t_max=2.0)]
        stiff = WalkParams(kappa=150.0, gamma=1.0, t_max=2.0)
        first, failed, last = evolve_batch(rho0, spec, [finite[0], stiff, finite[1]])
        assert isinstance(failed, IntegrationDiagnosticsError) and failed.t < 2.0
        for traj, params in zip((first, last), finite):
            lone = evolve(rho0, spec, params)
            for name in ("times", "populations", "trace_drift", "min_eigenvalue", "purity", "hermiticity"):
                assert np.array_equal(getattr(traj, name), getattr(lone, name)), name

    def test_empty_batch(self):
        assert evolve_batch(basis_density(0, 4), make_spec(2, ["11"]), []) == []

    def test_equal_strength_ratios_share_one_integration(self, monkeypatch):
        # kappa/gamma = 0.5 twice; in 1/gamma units the two runs are one walk
        stack_sizes = set()
        step = lindblad.rk4_step

        def recorded(f, y, dt):
            stack_sizes.add(y.shape[0])
            return step(f, y, dt)

        monkeypatch.setattr(lindblad, "rk4_step", recorded)
        spec = make_spec(3, ["101", "111"])
        first = WalkParams(kappa=0.5, gamma=1.0, t_max=2.0)
        other = WalkParams(kappa=1.0, gamma=2.0, t_max=2.0)
        distinct = WalkParams(kappa=1.0, gamma=1.0, t_max=2.0)
        a, b, c = evolve_batch(basis_density(0, 8), spec, [first, distinct, other])
        assert stack_sizes == {2}
        assert (a.params, b.params, c.params) == (first, distinct, other)
        assert np.array_equal(a.populations, c.populations)
        assert not np.shares_memory(a.populations, c.populations)
        lone = evolve(basis_density(0, 8), spec, distinct)
        assert np.array_equal(b.populations, lone.populations)


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
            _, smallest = _health(rho, live, sinks)
            full = np.linalg.eigvalsh(rho).min(axis=1)
            assert np.max(np.abs(smallest - full)) < 1e-15
            sink_held_minimum += list(weights[:, 1:].min(axis=1) == smallest)
        # both the block and the sink populations held the minimum somewhere
        assert 0 < sum(sink_held_minimum) < len(sink_held_minimum)

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

    def test_steps_keep_sink_coherences_zero(self, monkeypatch):
        # 200 steps from a superposition of non-sink patterns: the sinks
        # fill up, and their rows and columns stay exactly zero off the
        # diagonal
        spec = make_spec(4, ["0110", "1111"])
        amplitudes = np.zeros(spec.dim, dtype=complex)
        amplitudes[[0, 1, 3, 8]] = [0.5, 0.5j, -0.5, 0.5]
        rho0 = np.outer(amplitudes, amplitudes.conj())
        step, states = lindblad.rk4_step, []

        def recorded(apply, y, dt):
            y = step(apply, y, dt)
            states.append(y.copy())
            return y

        monkeypatch.setattr(lindblad, "rk4_step", recorded)
        params = [WalkParams(kappa=k, gamma=1.0, t_max=1.0, sample_every=1.0) for k in (0.5, 2.0)]
        evolve_batch(rho0, spec, params)
        assert len(states) == 200
        for rho in states:
            for s in spec.sinks:
                assert np.all(np.delete(rho[:, s], s, axis=-1) == 0.0)
                assert np.all(np.delete(rho[:, :, s], s, axis=-1) == 0.0)
        assert np.all(states[-1][:, list(spec.sinks), list(spec.sinks)].real > 0.0)


class TestAtSixNeurons:
    # the CLI's largest size, in the two limits that have an exact answer
    # independent of the integrator
    spec = make_spec(6, ["011010", "110111"])
    start = vertex_index("100001")

    def test_coherent_limit_matches_the_unitary(self):
        # gamma = 0: rho(t) = U rho0 U^dag with U = V exp(-i t w) V^T from
        # eigh of the real H, so the populations are |U[:, start]|^2; the
        # gap, about 4e-8, is RK4's error at dt = 0.005 with ||H|| = 6.8
        h = build_hamiltonian(self.spec)
        traj = evolve(
            basis_density(self.start, self.spec.dim), self.spec, WalkParams(kappa=1.0, gamma=0.0, t_max=5.0)
        )
        w, v = np.linalg.eigh(h)
        amplitudes = (v * np.exp(-1j * np.outer(traj.times, w))[:, None, :]) @ v[self.start]
        assert traj.times[-1] == pytest.approx(5.0)
        assert np.max(np.abs(traj.populations - np.abs(amplitudes) ** 2)) < 1e-7

    def test_dissipative_limit_matches_the_chain(self):
        # kappa = 0: the populations follow the classical chain sample by
        # sample; RK4's error here is about 2e-10
        params = WalkParams(kappa=0.0, gamma=1.0, t_max=5.0)
        traj = evolve(basis_density(self.start, self.spec.dim), self.spec, params)
        q = rate_matrix_from_jumps(build_jump_operators(self.spec), self.spec.dim)
        pi0 = np.zeros(self.spec.dim)
        pi0[self.start] = 1.0
        chain = ctmc_samples(q, pi0, traj.times[1], traj.times.size - 1)
        assert np.max(np.abs(traj.populations - chain)) < 1e-8


class TestMixingTime:
    def _constant_trajectory(self):
        times = np.arange(5) * 0.05
        pops = np.tile([0.0, 1.0], (5, 1))
        zeros = np.zeros(5)
        return Trajectory(
            times=times,
            populations=pops,
            trace_drift=zeros,
            min_eigenvalue=zeros,
            purity=np.ones(5),
            hermiticity=zeros,
            sink_indices=(1,),
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
