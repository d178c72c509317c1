import numpy as np
import pytest

from patternwalks.errors import ConfigurationError
from patternwalks.hypercube import build_jump_operators, make_spec
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
