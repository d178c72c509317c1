import numpy as np
import pytest

from patternwalks.errors import ConfigurationError
from patternwalks.numerics import expm, hermiticity_residual, rk4_step

from oracles import random_hermitian, taylor_expm


class TestHermiticityResidual:
    def test_hermiticity_residual_value(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_residual(a) == pytest.approx(1.0)


class TestRk4:
    def test_zero_rhs_keeps_state(self):
        y = np.array([[1.0 + 2j, 0.5], [0.0, -1.0]])
        out = rk4_step(lambda m: np.zeros_like(m), y, 0.1)
        assert np.array_equal(out, y)

    def test_scalar_exponential(self):
        y = np.array([[1.0 + 0j]])
        out = rk4_step(lambda m: m, y, 0.1)
        assert abs(out[0, 0] - np.exp(0.1)) < 1e-7

    def test_single_step_matches_propagator_to_fifth_order(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a /= np.linalg.norm(a, 2)
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for dt in (0.01, 0.005):
            stepped = rk4_step(lambda m: a @ m, y, dt)
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
            y = rk4_step(lambda m: a @ m, y, dt)
        exact = expm(a * total) @ y0
        assert np.max(np.abs(y - exact)) / np.max(np.abs(exact)) < 1e-6

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigurationError):
            rk4_step(lambda m: m, np.eye(2, dtype=complex), 0.0)


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3, dtype=complex))

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
