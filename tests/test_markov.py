import numpy as np
import pytest

from patternwalks import markov
from patternwalks.errors import ConfigurationError, ContractViolationError
from patternwalks.hypercube import build_jump_operators, make_spec, vertex_index
from patternwalks.markov import (
    as_probability_vector,
    as_rate_matrix,
    ctmc_evolve,
    ctmc_samples,
    rate_matrix_from_jumps,
)
from patternwalks.numerics import expm


def random_stochastic(n, rng):
    m = rng.uniform(0.05, 1.0, size=(n, n))
    return m / m.sum(axis=1, keepdims=True)


def rate_matrix(m):
    """Probability-conserving generator ``Q = M^T - I`` of a row-stochastic matrix."""
    return m.T - np.eye(m.shape[0])


# A small weighted three-state chain: off-diagonal weights 0.1, 0.2, 0.5
# and 0.9 with self-loops completing each row to one.
WEIGHTED_CHAIN = np.array(
    [
        [0.7, 0.1, 0.2],
        [0.5, 0.5, 0.0],
        [0.9, 0.0, 0.1],
    ]
)


class TestValidation:
    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ConfigurationError):
            as_probability_vector([0.5, 0.4])

    def test_rate_matrix_column_sums(self):
        with pytest.raises(ConfigurationError):
            as_rate_matrix([[-1.0, 0.0], [0.5, 0.0]])

    @pytest.mark.parametrize(
        "q", [[[np.nan, 0.0], [0.0, 0.0]], [[-np.inf, np.inf], [np.inf, -np.inf]]], ids=["nan", "inf"]
    )
    def test_rate_matrix_with_a_non_finite_entry(self, q):
        # a NaN passes every sign and column-sum test, which are false for it
        with pytest.raises(ConfigurationError, match="finite"):
            as_rate_matrix(q)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: as_rate_matrix(np.zeros((0, 0))),
            lambda: ctmc_samples(np.zeros((0, 0)), [1.0], 0.1, 2),
            lambda: ctmc_evolve(np.empty((0, 0)), [1.0], 0.1),
        ],
        ids=["as_rate_matrix", "ctmc_samples", "ctmc_evolve"],
    )
    def test_empty_rate_matrix(self, call):
        # np.max of a 0 x 0 matrix would raise a bare ValueError
        with pytest.raises(ConfigurationError, match="rate matrix must be non-empty"):
            call()

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [np.nan, np.nan]], ids=["nan-and-one", "all-nan"])
    def test_probability_vector_with_a_nan_entry(self, v):
        # NaN passes the range and sum tests, which are false for it
        with pytest.raises(ConfigurationError, match="finite"):
            as_probability_vector(v)


class TestCtmcEvolve:
    def test_zero_time_is_identity(self):
        q = rate_matrix(WEIGHTED_CHAIN)
        pi = np.array([0.2, 0.3, 0.5])
        assert np.allclose(ctmc_evolve(q, pi, 0.0), pi)

    def test_two_state_relaxation_closed_form(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        for t in (0.5, 1.0, 20.0):
            out = ctmc_evolve(q, [1.0, 0.0], t)
            expected = 0.5 * (1.0 + np.exp(-2.0 * t))
            assert abs(out[0] - expected) < 1e-9
        assert np.allclose(ctmc_evolve(q, [1.0, 0.0], 20.0), [0.5, 0.5], atol=1e-6)

    def test_conserves_and_stays_nonnegative(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            q = rate_matrix(random_stochastic(n, rng))
            pi = rng.dirichlet(np.ones(n))
            for t in (0.1, 1.0, 10.0, 100.0):
                out = ctmc_evolve(q, pi, t)
                assert abs(out.sum() - 1.0) < 1e-9
                assert np.all(out >= -1e-9)

    def test_negative_time_rejected(self):
        q = np.zeros((2, 2))
        with pytest.raises(ConfigurationError):
            ctmc_evolve(q, [1.0, 0.0], -1.0)

    def test_nan_distribution_rejected(self):
        # NaN passes the vector's range and sum tests, and would evolve
        # into [nan, nan]
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ConfigurationError, match="probability vector"):
            ctmc_evolve(q, [np.nan, 1.0], 1.0)

    def test_nan_time_rejected_by_name(self):
        # NaN passes a `delta < 0` test, and expm would report a 1-norm of nan
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ConfigurationError, match="evolution time must be >= 0, got nan"):
            ctmc_samples(q, [1.0, 0.0], np.nan, 3)

    @pytest.mark.parametrize("steps", [-1, -5, 2.0, True, None, "3"])
    def test_steps_must_be_a_non_negative_integer(self, steps):
        # -1 raised IndexError, -5 ValueError, 2.0 TypeError, and True ran one step
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ConfigurationError, match=r"^steps: must be an integer >= 0"):
            ctmc_samples(q, [1.0, 0.0], 0.5, steps)

    def test_numpy_integer_steps(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(ctmc_samples(q, [1.0, 0.0], 0.5, np.int64(3)),
                              ctmc_samples(q, [1.0, 0.0], 0.5, 3))

    def test_nan_propagator_is_a_drift(self, monkeypatch):
        # a NaN row fails the drift guard instead of passing through it
        monkeypatch.setattr(markov, "expm", lambda a: np.full(a.shape, np.nan))
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ContractViolationError, match="drifted by nan"):
            ctmc_samples(q, [1.0, 0.0], 0.5, 3)


class TestCtmcSamples:
    def test_matches_a_high_precision_exponential(self):
        mp = pytest.importorskip("mpmath")
        spec = make_spec(3, ["011", "101"])
        q = rate_matrix_from_jumps(build_jump_operators(spec), 8)
        pi0 = np.eye(8)[0]
        delta, steps = 0.05, 200
        stepped = ctmc_samples(q, pi0, delta, steps)
        assert stepped.shape == (steps + 1, 8)
        with mp.workdps(40):
            q_mp = mp.matrix(q.tolist())
            for k in range(0, steps + 1, 25):
                # the sample time k * delta of the float delta, taken exactly
                exact = mp.expm(q_mp * (k * mp.mpf(delta))) * mp.matrix(pi0.tolist())
                reference = np.array([float(x) for x in exact])
                assert np.max(np.abs(stepped[k] - reference)) < 1e-13, k

    def test_one_step_is_ctmc_evolve_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            q = rate_matrix(random_stochastic(n, rng))
            pi = rng.dirichlet(np.ones(n))
            t = float(rng.uniform(0.0, 5.0))
            out = ctmc_evolve(q, pi, t)
            assert np.array_equal(out, ctmc_samples(q, pi, t, 1)[1])
            # the single-time arithmetic: one expm(q t) @ pi0, clipped and renormalized
            single = np.clip(np.real(expm(q * t) @ pi), 0.0, None)
            assert np.array_equal(out, single / single.sum())

    @staticmethod
    def _doubling_formula(step, pi0, steps):
        """The doubling ``ctmc_samples`` runs, with new arrays for each block.

        Rows [done, done + w) are rows [done - w, done) times the transposed
        ``step^w``; w doubles by squaring while it stays within the dimension.
        Returns the rows, the count of negative entries clipped, and the row
        at which each block starts.
        """
        rows = [np.asarray(pi0, dtype=float)]
        power, width, clipped, starts = step.T, 1, 0, []
        while len(rows) <= steps:
            done = len(rows)
            if 2 * width <= min(done, step.shape[0]):
                power, width = power @ power, 2 * width
            block = np.array(rows[done - width:done - width + min(width, steps + 1 - done)]) @ power
            clipped += int(np.count_nonzero(block < 0))
            block = np.clip(block, 0, None)
            rows.extend(block / block.sum(axis=1, keepdims=True))
            starts.append(done)
        return np.array(rows), clipped, starts

    def _assert_pinned(self, q, pi0, delta, steps):
        expected, clipped, starts = self._doubling_formula(expm(np.asarray(q, dtype=float) * delta), pi0, steps)
        got = ctmc_samples(q, pi0, delta, steps)
        # the bytes pin every bit, sign bits of zeros included
        assert got.tobytes() == expected.tobytes()
        return clipped, starts

    @staticmethod
    def _oracle(q, pi0, delta, steps):
        """One exponential per row: ``expm(q k delta) pi0``."""
        return np.array([expm(q * (k * delta)) @ pi0 for k in range(steps + 1)])

    @staticmethod
    def _n6_chain(sinks, start):
        spec = make_spec(6, sinks)
        q = rate_matrix_from_jumps(build_jump_operators(spec), spec.dim)
        pi0 = np.zeros(spec.dim)
        pi0[vertex_index(start)] = 1.0
        return q, pi0

    def test_in_place_steps_equal_the_per_step_formula_on_the_n6_chain(self):
        # the n = 6 scenario of the classical benchmark's seed 3: jumps reach
        # 4 of the 64 vertices from the start, and 400 steps of 0.05 take 12
        # products, the width doubling from 1 to 64
        q, pi0 = self._n6_chain(["100110", "101010"], "110100")
        _, starts = self._assert_pinned(q, pi0, 0.05, 400)
        assert starts == [1, 2, 4, 8, 16, 32, 64, 128, 192, 256, 320, 384]

    @pytest.mark.parametrize("sinks, start", [(["110111", "000111"], "000000"), (["100110", "101010"], "110100")],
                             ids=["seed-1", "seed-3"])
    def test_every_row_matches_one_exponential_per_row(self, sinks, start):
        # the n = 6 scenarios of the classical benchmark's seeds 1 and 3
        q, pi0 = self._n6_chain(sinks, start)
        got = ctmc_samples(q, pi0, 0.05, 400)
        assert np.max(np.abs(got - self._oracle(q, pi0, 0.05, 400))) < 1e-13

    @pytest.mark.parametrize("n", [3, 6], ids=["d8", "d64"])
    def test_widths_at_the_edges_of_a_block(self, n):
        # step counts one below, at and above the widest block, and a last
        # block cut short
        spec = make_spec(n, ["0" * (n - 2) + "11", "1" * n])
        q = rate_matrix_from_jumps(build_jump_operators(spec), spec.dim)
        pi0 = np.eye(spec.dim)[0]
        oracle = self._oracle(q, pi0, 0.05, 400)
        d = spec.dim
        for steps in (0, 1, 2, d - 1, d, d + 1, 2 * d + 3, 400):
            self._assert_pinned(q, pi0, 0.05, steps)
            got = ctmc_samples(q, pi0, 0.05, steps)
            assert got.shape == (steps + 1, d)
            assert np.max(np.abs(got - oracle[:steps + 1])) < 1e-13, steps

    def test_in_place_steps_equal_the_per_step_formula_on_random_chains(self):
        rng = np.random.default_rng(5)
        clipped = 0
        for _ in range(12):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.05, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
            # off-diagonal rates just inside the validation tolerance give
            # propagators with negative entries, so some steps clip
            w[rng.random((n, n)) < 0.2] = -5e-13
            np.fill_diagonal(w, 0.0)
            q = w - np.diag(w.sum(axis=0))
            pi0 = np.zeros(n)
            pi0[int(rng.integers(n))] = 1.0
            clipped += self._assert_pinned(q, pi0, 0.05, 400)[0]
            clipped += self._assert_pinned(rate_matrix(random_stochastic(n, rng)),
                                           rng.dirichlet(np.ones(n)), 0.05, 400)[0]
        assert clipped > 0

    def test_drift_in_the_middle_of_a_block_names_its_row(self, monkeypatch):
        # column 1 of this propagator sums to 1 + e, e = 4.5e-10, so a row's
        # drift grows with its source row's weight on state 1, which grows
        # along a block. Rows 4-7 are one block, P^4 times rows 0-3: they
        # drift by 2.125e (passes), 3.0625e, 3.53e and 3.77e, and the row
        # reported is the first that fails, not the block's first or worst
        step = np.eye(4)
        step[:2, :2] = [[0.5, 0.0], [0.5, 1.0 + 4.5e-10]]
        monkeypatch.setattr(markov, "expm", lambda a: step)
        q, pi0 = np.zeros((4, 4)), [1.0, 0.0, 0.0, 0.0]
        assert ctmc_samples(q, pi0, 0.5, 4).shape == (5, 4)
        with pytest.raises(ContractViolationError, match=r"drifted by 1\.38e-09$"):
            ctmc_samples(q, pi0, 0.5, 7)

    @staticmethod
    def _spy_clip(monkeypatch):
        calls = []
        clip = markov._clip

        def spy(block):
            calls.append(1)
            return clip(block)

        monkeypatch.setattr(markov, "_clip", spy)
        return calls

    def test_unsigned_chain_runs_no_clip(self, monkeypatch):
        # the n = 6 scenario of the classical benchmark's seed 1: its
        # propagator has no sign bit, so no power of it has one, and no
        # product can be negative or -0.0
        q, pi0 = self._n6_chain(["110111", "000111"], "000000")
        assert not np.signbit(expm(q * 0.05)).any()
        calls = self._spy_clip(monkeypatch)
        assert self._assert_pinned(q, pi0, 0.05, 400)[0] == 0
        assert calls == []

    @pytest.mark.parametrize("start", [[-0.0, 0.3, 0.7], [-1e-12, 0.3, 0.7 + 1e-12]],
                             ids=["minus-zero", "negative"])
    def test_signed_start_takes_the_clip_path(self, monkeypatch, start):
        # one clip per product: width 1, then blocks of 2 (capped by d = 3)
        calls = self._spy_clip(monkeypatch)
        _, starts = self._assert_pinned(rate_matrix(WEIGHTED_CHAIN), start, 0.05, 40)
        assert len(calls) == len(starts) == 21

    def test_signed_propagator_takes_the_clip_path(self, monkeypatch):
        # an off-diagonal rate just inside the validation tolerance gives
        # the propagator a negative entry
        q = np.array([[-1.0, -5e-13, 0.0], [1.0, 5e-13, 0.0], [0.0, 0.0, 0.0]])
        assert np.signbit(expm(q * 0.05)).any()
        calls = self._spy_clip(monkeypatch)
        clipped, starts = self._assert_pinned(q, [0.0, 1.0, 0.0], 0.05, 40)
        assert clipped > 0
        assert len(calls) == len(starts) == 21

    def test_zero_steps_is_the_initial_distribution(self):
        q = rate_matrix(WEIGHTED_CHAIN)
        assert np.array_equal(ctmc_samples(q, [0.2, 0.3, 0.5], 0.1, 0), [[0.2, 0.3, 0.5]])


class TestJumpGenerator:
    def test_generator_from_single_jump(self):
        spec = make_spec(1, ["1"])
        q = rate_matrix_from_jumps(build_jump_operators(spec), 2)
        assert np.allclose(q, [[-1.0, 0.0], [1.0, 0.0]])

    def test_columns_sum_to_zero(self):
        spec = make_spec(3, ["101", "111"])
        q = rate_matrix_from_jumps(build_jump_operators(spec), 8)
        as_rate_matrix(q)
        assert np.allclose(q.sum(axis=0), 0.0)

    def test_absorption_reaches_sink(self):
        spec = make_spec(1, ["1"])
        q = rate_matrix_from_jumps(build_jump_operators(spec), 2)
        out = ctmc_evolve(q, [1.0, 0.0], 3.0)
        assert out[1] == pytest.approx(1.0 - np.exp(-3.0), abs=1e-9)
