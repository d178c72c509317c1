import numpy as np
import pytest

from patternwalks.errors import ConfigurationError
from patternwalks.numerics import expm, hermiticity_residual, rk4_coefficients, rk4_step

from oracles import random_hermitian, rk4_staged_step, taylor_expm


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

    def test_fortran_ordered_input_is_read_not_written(self):
        # the transpose of a Fortran-ordered matrix is C-contiguous, so a
        # copy-if-needed of it would alias the caller's array
        rng = np.random.default_rng(61)
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = np.asfortranarray(x + x.conj().T)
        start = h.copy()
        assert hermiticity_residual(h) == 0.0
        assert np.array_equal(h, start)


def linear(a):
    """``apply`` for rk4_step: writes ``c a x`` into ``out``."""
    return lambda x, c, out: np.multiply(c, a @ x, out=out)


def non_normal(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = np.triu(a)  # upper triangular with a non-zero strict part: non-normal
    return a / np.linalg.norm(a, 2)


class TestRk4:
    def test_zero_rhs_keeps_state(self):
        y = np.array([[1.0 + 2j, 0.5], [0.0, -1.0]])
        start = y.copy()
        out = rk4_step(lambda x, c, out: np.multiply(0.0, x, out=out), y, 0.1)
        assert out is y
        assert np.array_equal(out, start)

    def test_scalar_exponential(self):
        y = np.array([[1.0 + 0j]])
        out = rk4_step(lambda x, c, out: np.multiply(c, x, out=out), y, 0.1)
        assert out is y
        assert abs(out[0, 0] - np.exp(0.1)) < 1e-7

    def test_single_step_matches_propagator_to_fifth_order(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a /= np.linalg.norm(a, 2)
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for dt in (0.01, 0.005):
            stepped = rk4_step(linear(a), y.copy(), dt)
            exact = expm(a * dt) @ y
            assert np.max(np.abs(stepped - exact)) < 10 * dt**5

    @pytest.mark.parametrize("norm, dt", [(3.0, 0.01), (10.0, 0.005)])
    def test_long_run_matches_propagator(self, norm, dt):
        rng = np.random.default_rng(37)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = 0.5 * (a - a.conj().T)  # norm-preserving generator
        a *= norm / np.linalg.norm(a, 2)
        y0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        total = 1.0
        y = y0.copy()
        for _ in range(int(round(total / dt))):
            assert rk4_step(linear(a), y, dt) is y
        exact = expm(a * total) @ y0
        assert np.max(np.abs(y - exact)) / np.max(np.abs(exact)) < 1e-6

    def test_calls_apply_at_the_exported_coefficients(self):
        seen = []

        def apply(x, c, out):
            seen.append(c)
            return np.multiply(c, x, out=out)

        rk4_step(apply, np.ones((2, 2)), 0.3)
        assert tuple(seen) == rk4_coefficients(0.3) == (0.3 / 4, 0.3 / 3, 0.3 / 2, 0.3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigurationError):
            rk4_step(lambda x, c, out: np.multiply(c, x, out=out), np.eye(2, dtype=complex), 0.0)

    @pytest.mark.parametrize("n", [4, 16])
    def test_horner_form_matches_staged_oracle(self, n):
        # The nested polynomial and the four general stages are the same
        # map for a linear generator; only the rounding differs.
        rng = np.random.default_rng(53 + n)
        a = non_normal(n, rng)
        assert np.linalg.norm(a @ a.conj().T - a.conj().T @ a) > 0.1
        y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        staged = y.copy()
        for _ in range(100):
            rk4_step(linear(a), y, 0.01)
            staged = rk4_staged_step(lambda m: a @ m, staged, 0.01)
        assert np.max(np.abs(y - staged)) / np.max(np.abs(staged)) < 1e-13


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
