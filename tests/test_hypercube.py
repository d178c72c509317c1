import itertools

import numpy as np
import pytest

from patternwalks.errors import ConfigurationError
from patternwalks.hypercube import (
    LTE,
    STRICT,
    build_hamiltonian,
    build_jump_operators,
    index_pattern,
    jump_gain,
    make_spec,
    sink_distances,
    vertex_index,
)

from oracles import brute_force_adjacency, brute_force_jumps


def reachable(spec):
    """True when every non-sink vertex has a directed jump path to a sink."""
    reverse = {}
    for op in build_jump_operators(spec):
        reverse.setdefault(op.dst, []).append(op.src)
    frontier = list(spec.sinks)
    seen = set(spec.sinks)
    while frontier:
        v = frontier.pop()
        for u in reverse.get(v, ()):  # walk edges backwards from the sinks
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == spec.dim


def random_spec(rng, n=None, max_sinks=3):
    n = n or int(rng.integers(1, 6))
    dim = 1 << n
    count = int(rng.integers(1, min(max_sinks, dim - 1) + 1))
    sinks = rng.choice(dim, size=count, replace=False)
    return make_spec(n, [int(s) for s in sinks])


class TestVertexIndex:
    def test_zero_string(self):
        assert vertex_index("000") == 0

    def test_known_corners(self):
        assert vertex_index("101") == 5
        assert vertex_index("111") == 7
        assert vertex_index("1011") == 11

    def test_round_trip(self):
        for v in range(16):
            assert vertex_index(index_pattern(v, 4)) == v

    @pytest.mark.parametrize("pattern", [[1, 0, 1], 5, "", "1a1"])
    def test_rejects_anything_but_a_bit_string(self, pattern):
        with pytest.raises(ConfigurationError, match="invalid pattern"):
            vertex_index(pattern)

    @pytest.mark.parametrize("pattern", ["10", "1010", "1a1", None])
    def test_length_and_key_are_checked_together(self, pattern):
        with pytest.raises(ConfigurationError) as err:
            vertex_index(pattern, 3, "initial")
        assert str(err.value) == (
            f"initial: invalid pattern {pattern!r}, expected a bit string of length 3"
        )


class TestMinSinkDistance:
    def test_sink_is_zero(self):
        spec = make_spec(3, ["101", "111"])
        assert sink_distances(spec)[5] == 0

    def test_adjacent_sink_pair(self):
        spec = make_spec(3, ["101", "111"])
        assert list(sink_distances(spec)) == [2, 1, 2, 1, 1, 0, 1, 0]

    def test_equidistant_sink_pair(self):
        spec = make_spec(3, ["011", "101"])
        assert list(sink_distances(spec)) == [2, 1, 1, 0, 1, 0, 2, 1]

    def test_matches_pairwise_minimum_for_random_specs(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            spec = random_spec(rng)
            expected = [min(bin(v ^ s).count("1") for s in spec.sinks) for v in range(spec.dim)]
            assert list(sink_distances(spec)) == expected


class TestSpecValidation:
    def test_requires_sink(self):
        with pytest.raises(ConfigurationError):
            make_spec(2, [])

    def test_rejects_duplicate_sinks(self):
        with pytest.raises(ConfigurationError):
            make_spec(2, ["01", "01"])

    def test_rejects_all_vertices_sinks(self):
        with pytest.raises(ConfigurationError):
            make_spec(1, ["0", "1"])

    def test_rejects_distant_weight_override(self):
        with pytest.raises(ConfigurationError):
            make_spec(2, ["11"], [("00", "11", 2.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ConfigurationError):
            make_spec(2, ["11"], [("00", "01", 0.0)])

    @pytest.mark.parametrize("second", [("000", "001", 3.0), ("001", "000", 3.0)])
    def test_repeated_override_names_both_patterns(self, second):
        with pytest.raises(ConfigurationError) as err:
            make_spec(3, ["111"], [("000", "001", 2.0), second])
        assert str(err.value) == "edge_weights: the pair '000', '001' is given twice"

    def test_rejects_override_pattern_of_wrong_length(self):
        with pytest.raises(ConfigurationError):
            make_spec(3, ["111"], [("0000", "0001", 2.0)])

    def test_rejects_bool_vertex(self):
        with pytest.raises(ConfigurationError):
            make_spec(3, [True])
        with pytest.raises(ConfigurationError):
            make_spec(3, ["111"], [(False, 1, 2.0)])

    @pytest.mark.parametrize(
        "vertex", [[1, 0, 1], (1, 0, 1), 5.0, None, np.bool_(True), "10", "1a1", np.int64(9)]
    )
    def test_vertex_is_an_integer_index_or_a_bit_string(self, vertex):
        with pytest.raises(ConfigurationError, match="^sinks: "):
            make_spec(3, [vertex])
        with pytest.raises(ConfigurationError, match="^edge_weights: "):
            make_spec(3, ["111"], [(vertex, "000", 2.0)])

    def test_rule_is_checked_and_kept(self):
        assert make_spec(1, ["1"]).rule == STRICT
        assert make_spec(1, ["1"], rule=LTE).rule == LTE
        for rule in ("loose", None, ["lte"]):
            with pytest.raises(ConfigurationError, match="^equidistant_rule: "):
                make_spec(1, ["1"], rule=rule)

    def test_numpy_integer_is_an_index(self):
        assert make_spec(3, [np.int64(5), np.int8(1)]).sinks == (1, 5)

    @pytest.mark.parametrize(
        "override",
        [("0", "0", "abc"), ("0", "0", None), ("0", "0"), ("0", "0", 2.0, 1), None, 5,
         ("0", "0", "2.5"), ("0", "0", True), ("0", "0", 10**400)],
    )
    def test_malformed_override_names_edge_weights(self, override):
        with pytest.raises(ConfigurationError, match="^edge_weights: "):
            make_spec(1, ["1"], [override])


class TestHamiltonian:
    def test_single_neuron_single_sink(self):
        h = build_hamiltonian(make_spec(1, ["1"]))
        assert np.allclose(h, [[1.0, 0.0], [0.0, 0.0]])

    def test_sink_rows_and_columns_vanish(self):
        h = build_hamiltonian(make_spec(3, ["101", "111"]))
        assert np.all(h[5] == 0) and np.all(h[:, 5] == 0)
        assert np.all(h[7] == 0) and np.all(h[:, 7] == 0)
        assert h[0, 1] == 1.0
        assert h[0, 3] == 0.0  # two bit flips apart

    def test_watershed_edges_dropped_under_strict_rule(self):
        strict = build_hamiltonian(make_spec(3, ["101", "111"], rule=STRICT))
        relaxed = build_hamiltonian(make_spec(3, ["101", "111"], rule=LTE))
        # vertices 0 and 2 are equidistant from the sink set
        assert strict[0, 2] == 0.0
        assert relaxed[0, 2] == 1.0
        assert relaxed[0, 1] == strict[0, 1] == 1.0

    def test_weight_override_lands_on_edge(self):
        spec = make_spec(2, ["11"], [("00", "01", 2.5), ("10", "10", 0.5)])
        h = build_hamiltonian(spec)
        assert h[0, 1] == 2.5 and h[1, 0] == 2.5
        assert h[2, 2] == 0.5

    def test_symmetric_real_with_zero_sink_cross_for_random_specs(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            spec = random_spec(rng)
            for rule in (STRICT, LTE):
                h = build_hamiltonian(make_spec(spec.n, spec.sinks, spec.edge_weights, rule))
                assert np.allclose(h, h.T)
                assert np.all(h.imag == 0.0)
                for s in spec.sinks:
                    assert np.all(h[s] == 0) and np.all(h[:, s] == 0)
            # relaxed rule keeps the full sink-isolated adjacency
            h = build_hamiltonian(make_spec(spec.n, spec.sinks, spec.edge_weights, LTE))
            expected = brute_force_adjacency(spec.n, spec.sinks)
            assert np.allclose(h.real, expected)


class TestJumpOperators:
    def test_relaxed_rule_emits_both_directions_on_ties(self):
        spec = make_spec(3, ["101", "111"], rule=LTE)
        got = {(op.src, op.dst) for op in build_jump_operators(spec)}
        assert (0, 2) in got and (2, 0) in got
        assert got == brute_force_jumps(3, [5, 7], strict=False) - {(5, 7), (7, 5)}

    def test_operator_invariants_for_random_specs(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            spec = random_spec(rng)
            ops = build_jump_operators(spec)
            assert {(op.src, op.dst) for op in ops} == brute_force_jumps(spec.n, spec.sinks)
            d = sink_distances(spec)
            for op in ops:
                assert bin(op.src ^ op.dst).count("1") == 1
                assert d[op.dst] < d[op.src]
                assert op.src not in spec.sinks

    def test_single_sink_operator_count_is_full_edge_set(self):
        # with one sink no edge is equidistant, so every edge carries a jump
        for n in (2, 3, 4):
            spec = make_spec(n, ["1" * n])
            assert len(build_jump_operators(spec)) == n * 2 ** (n - 1)

    def test_jump_matrix_layout(self):
        # the single jump 0 -> 1 lands at gain[dst, src], like |dst><src|
        gain, out_degree = jump_gain(build_jump_operators(make_spec(1, ["1"])), 2)
        assert gain[1, 0] == 1.0 and np.count_nonzero(gain) == 1
        assert list(out_degree) == [1.0, 0.0]

    def test_gain_rejects_jump_outside_dimension(self):
        with pytest.raises(ConfigurationError):
            jump_gain(build_jump_operators(make_spec(2, ["11"])), 2)


class TestReachability:
    def test_single_sink_specs_always_reach(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            spec = random_spec(rng, max_sinks=1)
            assert reachable(spec)

    def test_random_multi_sink_specs_reach(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            assert reachable(random_spec(rng))

    def test_every_small_sink_set_reaches_under_both_rules(self):
        # flipping a bit where v differs from its nearest sink lowers the
        # distance by one, so a sink-ward jump leaves every non-sink vertex
        checked = 0
        for n in (1, 2, 3, 4):
            for size in (1, 2, 3):
                if size >= 1 << n:
                    continue
                for sinks in itertools.combinations(range(1 << n), size):
                    assert reachable(make_spec(n, list(sinks), rule=STRICT))
                    assert reachable(make_spec(n, list(sinks), rule=LTE))
                    checked += 1
        assert checked == 804
