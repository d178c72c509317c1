import tracemalloc

import numpy as np
import pytest

from patternwalks.errors import ConfigurationError
from patternwalks.hypercube import build_jump_operators, make_spec
from patternwalks.markov import rate_matrix_from_jumps
from patternwalks.numerics import expm, hermiticity_residual

from oracles import random_hermitian, taylor_expm


class TestHermiticityResidual:
    def test_hermiticity_residual_value(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_residual(a) == pytest.approx(1.0)

    def test_stack_matches_elementwise_definition(self):
        rng = np.random.default_rng(59)
        a = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        expected = [
            max(np.abs(m[i, j] - np.conj(m[j, i])) for i in range(5) for j in range(5)) for m in a
        ]
        assert np.array_equal(hermiticity_residual(a), expected)

    def test_stack_allocates_one_copy(self):
        # the walk checks a block's samples as one real stack: the residual
        # holds one copy of it, not a copy and its absolute value (1.2x
        # leaves room for tracemalloc's own bookkeeping)
        rng = np.random.default_rng(67)
        a = rng.normal(size=(4, 64, 64))
        expected = np.max(np.abs(a - a.swapaxes(-1, -2)), axis=(-2, -1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            residual = hermiticity_residual(a)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.array_equal(residual, expected)
        assert peak < 1.2 * a.nbytes

    @pytest.mark.parametrize("dim, dtype", [(16, float), (64, float), (64, complex)])
    def test_residual_is_the_conjugating_formulas(self, dim, dtype):
        # a real stack skips the conjugate, which only copies it onto
        # itself: at n = 4 and n = 6 it gives the bits of the formula that
        # conjugates every stack, and so does a complex stack
        def conjugating(m):
            diff = m.swapaxes(-1, -2).copy()
            np.subtract(m, np.conjugate(diff, out=diff), out=diff)
            return np.max(np.abs(diff, out=diff).real, axis=(-2, -1), initial=0.0)

        rng = np.random.default_rng(71)
        a = rng.normal(size=(8, dim, dim)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=a.shape)
        a += a.conj().swapaxes(-1, -2) * (1 - 1e-12)
        residual = hermiticity_residual(a)
        assert residual.dtype == np.float64 and np.all(residual > 0.0)
        assert np.array_equal(residual, conjugating(a))

    def test_fortran_ordered_input_is_read_not_written(self):
        # the transpose of a Fortran-ordered matrix is C-contiguous, so a
        # copy-if-needed of it would alias the caller's array
        rng = np.random.default_rng(61)
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = np.asfortranarray(x + x.conj().T)
        start = h.copy()
        assert hermiticity_residual(h) == 0.0
        assert np.array_equal(h, start)


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3, dtype=complex))

    def test_keeps_a_real_argument_real(self):
        a = np.array([[-1.0, 0.0], [1.0, 0.0]])
        out = expm(a)
        assert out.dtype == np.float64
        decay = np.exp(-1.0)
        assert np.allclose(out, [[decay, 0.0], [1.0 - decay, 1.0]], rtol=0.0, atol=1e-15)
        assert expm(a.astype(complex)).dtype == np.complex128

    def test_diagonal(self):
        a, b = 0.3 - 1.2j, -2.0 + 0.4j
        out = expm(np.diag([a, b]))
        assert np.allclose(np.diag(out), [np.exp(a), np.exp(b)], atol=1e-12)
        assert abs(out[0, 1]) == 0.0 and abs(out[1, 0]) == 0.0

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a /= np.linalg.norm(a, 2)
        assert np.max(np.abs(expm(a) - taylor_expm(a, 30))) < 1e-10

    def test_large_norm_via_squaring(self):
        # Composition check: exp(A) == exp(A/8)^8 for a norm ~20 matrix.
        rng = np.random.default_rng(43)
        a = rng.normal(size=(3, 3))
        a *= 20.0 / np.linalg.norm(a, 2)
        small = expm(a / 8.0)
        composed = np.linalg.matrix_power(small, 8)
        assert np.allclose(expm(a), composed, rtol=1e-9, atol=1e-9)

    def test_hermitian_norm_fifty_against_diagonalization(self):
        # Independent oracle: exp of a Hermitian matrix reconstructed from
        # its LAPACK eigendecomposition, at the top of the norm envelope.
        rng = np.random.default_rng(47)
        a = random_hermitian(6, rng)
        a *= 50.0 / np.max(np.abs(np.linalg.eigvalsh(a)))
        values, vectors = np.linalg.eigh(a)
        reference = vectors @ np.diag(np.exp(values)) @ vectors.conj().T
        error = np.linalg.norm(expm(a) - reference, 2) / np.linalg.norm(reference, 2)
        assert error < 1e-10

    @pytest.mark.parametrize(
        "a",
        [[[np.nan, 0.0], [0.0, 0.0]], [[np.inf, 0.0], [0.0, 0.0]], [[-np.inf, np.inf], [np.inf, -np.inf]]],
        ids=["nan", "inf", "infinite-generator"],
    )
    def test_non_finite_argument_is_a_configuration_error(self, a):
        with pytest.raises(ConfigurationError, match="finite"):
            expm(a)

    def test_n6_chain_stride_against_mpmath(self):
        # the CI n = 6 chain's generator times its sample stride (1-norm
        # 0.6); the max-entry error relative to the largest entry is 1.1e-16
        mp = pytest.importorskip("mpmath")
        spec = make_spec(6, ["011010", "110111"])
        a = rate_matrix_from_jumps(build_jump_operators(spec), 64) * 0.05
        with mp.workdps(20):
            reference = np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=float)
        error = np.max(np.abs(expm(a) - reference)) / np.max(np.abs(reference))
        assert error < 5e-16

    @pytest.mark.parametrize(
        "norm, bound", [(1e-3, 1e-15), (0.3, 2e-15), (3.0, 1e-14), (30.0, 5e-14), (300.0, 1e-12)]
    )
    def test_random_matrix_against_mpmath(self, norm, bound):
        # max-entry error relative to the largest entry, measured at
        # 2.2e-16, 2.1e-16, 1.3e-15, 5.0e-15 and 1.1e-13
        mp = pytest.importorskip("mpmath")
        a = np.random.default_rng(0).normal(size=(10, 10))
        a *= norm / np.max(np.sum(np.abs(a), axis=0))
        with mp.workdps(30):
            reference = np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=float)
        assert np.max(np.abs(expm(a) - reference)) / np.max(np.abs(reference)) < bound
