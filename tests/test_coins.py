import numpy as np
import pytest

from patternwalks.coins import biased_coin, is_unitary, neuron_coin
from patternwalks.errors import ConfigurationError

GRID = [i / 20 for i in range(21)]


class TestBiasedCoin:
    def test_half_bias_is_hadamard(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.allclose(biased_coin(0.5), hadamard)

    def test_boundary_bias(self):
        assert np.allclose(biased_coin(1.0), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("p", GRID)
    def test_unitary_on_grid(self, p):
        report = is_unitary(biased_coin(p))
        assert report.unitary
        assert report.deviation < 1e-12

    def test_out_of_range_is_fatal(self):
        with pytest.raises(ConfigurationError):
            biased_coin(1.5)


class TestNeuronCoin:
    def test_half_bias_is_unitary(self):
        assert is_unitary(neuron_coin(0.5)).unitary

    def test_generic_bias_deviation(self):
        report = is_unitary(neuron_coin(0.3))
        assert not report.unitary
        assert report.deviation == pytest.approx(0.4, abs=1e-14)

    def test_zero_bias_is_rank_one(self):
        c = neuron_coin(0.0)
        assert np.allclose(c @ np.array([1.0, 0.0]), [1.0, 0.0])
        assert np.allclose(c @ np.array([0.0, 1.0]), [1.0, 0.0])
        assert not is_unitary(c).unitary

    def test_unitary_only_at_half(self):
        flags = [is_unitary(neuron_coin(p)).unitary for p in GRID]
        assert flags == [p == 0.5 for p in GRID]

    def test_out_of_range_is_fatal(self):
        with pytest.raises(ConfigurationError):
            neuron_coin(-0.1)
