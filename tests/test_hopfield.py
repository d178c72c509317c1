import numpy as np
import pytest

from patternwalks.errors import ConfigurationError
from patternwalks.hopfield import (
    AS_PRINTED,
    RANDOM,
    STANDARD,
    energy,
    format_pattern,
    hebbian_store,
    parse_pattern,
    run_async,
    validate_weights,
    zero_thresholds,
)

from oracles import exhaustive_async_fixed_point


def random_weights(n, rng):
    w = rng.uniform(-1.0, 1.0, size=(n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return w


class TestPatterns:
    def test_round_trip(self):
        assert format_pattern(parse_pattern("10110")) == "10110"

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_pattern("10a")
        with pytest.raises(ConfigurationError):
            parse_pattern("")


def first_neuron_after_one_sweep(w, sense=STANDARD):
    """Neuron 0 after one cyclic sweep from "010": it updates first, so it reads the input."""
    run = run_async(parse_pattern("010"), w, zero_thresholds(3), max_sweeps=1, sense=sense)
    return run.states[1][0]


def coupled_pair(weight):
    """A 3-neuron net whose only coupling joins neurons 0 and 1."""
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = weight
    return w


class TestUpdateNeuron:
    """The single-neuron threshold rule, as one sweep of run_async applies it."""

    def test_zero_weights_fire_on_tie(self):
        assert first_neuron_after_one_sweep(np.zeros((3, 3))) == 1

    def test_positive_coupling_fires(self):
        assert first_neuron_after_one_sweep(coupled_pair(1.0)) == 1

    def test_negative_coupling_rests(self):
        assert first_neuron_after_one_sweep(coupled_pair(-1.0)) == 0

    def test_as_printed_sense_inverts(self):
        assert first_neuron_after_one_sweep(coupled_pair(-1.0), AS_PRINTED) == 1
        assert first_neuron_after_one_sweep(coupled_pair(1.0), AS_PRINTED) == 0


class TestEnergy:
    def test_zero_state(self):
        assert energy([0, 0], np.zeros((2, 2)), zero_thresholds(2)) == 0.0

    def test_coupled_pair(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert energy([1, 1], w, zero_thresholds(2)) == pytest.approx(-1.0)

    def test_threshold_term(self):
        assert energy([1, 1], np.zeros((2, 2)), np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_threshold_of_the_wrong_length_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match=r"threshold shape \(1,\) does not match 2 neurons"):
            energy([1, 1], np.zeros((2, 2)), [1.0])


class TestHebbianStore:
    def test_single_pattern_aligned(self):
        w = hebbian_store([parse_pattern("11")])
        assert w[0, 1] == pytest.approx(1.0)

    def test_single_pattern_anti(self):
        w = hebbian_store([parse_pattern("10")])
        assert w[0, 1] == pytest.approx(-1.0)

    def test_two_patterns_average(self):
        w = hebbian_store([parse_pattern("10"), parse_pattern("01")])
        assert w[0, 1] == pytest.approx(-1.0)

    def test_empty_is_fatal(self):
        with pytest.raises(ConfigurationError):
            hebbian_store([])

    def test_invariants_hold_for_random_pattern_sets(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            count = int(rng.integers(1, 5))
            patterns = [rng.integers(0, 2, size=n) for _ in range(count)]
            w = hebbian_store(patterns)
            assert np.allclose(w, w.T)
            assert np.all(np.diag(w) == 0.0)
            assert np.all(np.abs(w) <= 1.0)


class TestRunAsync:
    def test_stored_pattern_is_immediate_fixed_point(self):
        pattern = parse_pattern("1010")
        w = hebbian_store([pattern])
        run = run_async(pattern, w, zero_thresholds(4))
        assert run.converged
        assert run.flips == 0
        assert len(run.states) == 2  # input plus the confirming sweep
        assert format_pattern(run.final) == "1010"

    def test_corrupted_input_retrieves_stored_pattern(self):
        w = hebbian_store([parse_pattern("1010")])
        run = run_async(parse_pattern("1011"), w, zero_thresholds(4))
        assert format_pattern(run.final) == "1010"
        # cross-checked against a literal replay of the update inequality
        oracle = exhaustive_async_fixed_point((1, 0, 1, 1), w.tolist(), range)
        assert oracle == tuple(run.final)

    def test_zero_weights_all_fire_in_one_sweep(self):
        run = run_async(parse_pattern("010"), np.zeros((3, 3)), zero_thresholds(3))
        assert format_pattern(run.states[1]) == "111"
        assert run.converged

    def test_random_order_is_seeded(self):
        w = hebbian_store([parse_pattern("1100")])
        a = run_async(parse_pattern("1000"), w, zero_thresholds(4), order=RANDOM, seed=5)
        b = run_async(parse_pattern("1000"), w, zero_thresholds(4), order=RANDOM, seed=5)
        assert [s.tolist() for s in a.states] == [s.tolist() for s in b.states]

    def test_exhausted_sweep_cap_is_reported_not_raised(self):
        # one sweep flips every neuron on; the confirming sweep never runs
        run = run_async(parse_pattern("000"), np.zeros((3, 3)), zero_thresholds(3), max_sweeps=1)
        assert not run.converged
        assert run.sweeps == 1
        assert format_pattern(run.final) == "111"

    def test_energy_never_increases_standard_sense(self):
        rng = np.random.default_rng(71)
        theta_cache = {}
        for _ in range(30):
            n = int(rng.integers(2, 7))
            w = random_weights(n, rng)
            theta = theta_cache.setdefault(n, zero_thresholds(n))
            state = rng.integers(0, 2, size=n)
            run = run_async(state, w, theta, order=RANDOM, seed=int(rng.integers(1 << 30)))
            energies = [energy(s, w, theta) for s in run.states]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_fixed_points_are_self_consistent(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            w = random_weights(n, rng)
            theta = zero_thresholds(n)
            run = run_async(rng.integers(0, 2, size=n), w, theta)
            if run.converged:
                again = run_async(run.final, w, theta)
                assert again.converged and again.flips == 0
                assert np.array_equal(again.final, run.final)

    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("theta", zero_thresholds(2), "threshold shape"),
            ("sense", "inverted", "threshold sense"),
            ("max_sweeps", 2.5, "max_sweeps"),
            ("max_sweeps", 0, "max_sweeps"),
            ("max_sweeps", True, "max_sweeps"),
            ("seed", -1, "seed"),
        ],
    )
    def test_bad_argument_is_a_configuration_error(self, argument, value, message):
        arguments = {"state": [0, 1, 0], "w": np.zeros((3, 3)), "theta": zero_thresholds(3)}
        arguments[argument] = value
        with pytest.raises(ConfigurationError, match=message):
            run_async(**arguments)

    @pytest.mark.parametrize(
        "w, theta, message",
        [
            pytest.param([["a", "b"], ["c", "d"]], [0, 0], "weight matrix must hold real numbers", id="weights"),
            pytest.param(np.zeros((2, 2)), ["a", "b"], "threshold must hold real numbers", id="theta"),
        ],
    )
    def test_non_numeric_entry_is_a_configuration_error(self, w, theta, message):
        with pytest.raises(ConfigurationError, match=message):
            run_async([0, 1], w, theta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_is_named(self, bad):
        # NaN != NaN would otherwise fail the symmetry test first
        with pytest.raises(ConfigurationError, match="weights must be finite numbers"):
            validate_weights([[0.0, bad], [bad, 0.0]])
