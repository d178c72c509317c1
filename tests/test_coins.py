import numpy as np
import pytest

from patternwalks.coins import biased_coin, is_unitary, neuron_coin
from patternwalks.errors import ConfigurationError


class TestBiasedCoin:
    def test_half_bias_is_hadamard(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.allclose(biased_coin(0.5), hadamard)

    def test_boundary_bias(self):
        assert np.allclose(biased_coin(1.0), np.diag([1.0, -1.0]))

    def test_out_of_range_is_fatal(self):
        with pytest.raises(ConfigurationError):
            biased_coin(1.5)


class TestNeuronCoin:
    def test_generic_bias_deviation(self):
        report = is_unitary(neuron_coin(0.3))
        assert not report.unitary
        assert report.deviation == pytest.approx(0.4, abs=1e-14)

    def test_zero_bias_is_rank_one(self):
        c = neuron_coin(0.0)
        assert np.allclose(c @ np.array([1.0, 0.0]), [1.0, 0.0])
        assert np.allclose(c @ np.array([0.0, 1.0]), [1.0, 0.0])
        assert not is_unitary(c).unitary

    def test_out_of_range_is_fatal(self):
        with pytest.raises(ConfigurationError):
            neuron_coin(-0.1)


@pytest.mark.parametrize("make, bias", [(neuron_coin, True), (biased_coin, "0.5")], ids=["neuron-bool", "biased-str"])
def test_bias_that_is_not_a_real_number_rejected(make, bias):
    # float() accepts both; the bias is checked as every other scalar input is
    with pytest.raises(ConfigurationError, match="coin bias must be a real number"):
        make(bias)
