import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from patternwalks import coins, config, experiments, hopfield, markov, output
from patternwalks.cli import main
from patternwalks.config import (
    load_hopfield,
    load_scenario,
    load_sweep,
    parse_hopfield,
    parse_scenario,
    parse_sweep,
)
from patternwalks.constants import MAX_STEPS
from patternwalks.errors import ConfigurationError, IntegrationDiagnosticsError
from patternwalks.experiments import (
    run_classical,
    run_coin_check,
    run_hopfield,
    run_simulate,
    run_sweep,
)
from patternwalks.hypercube import make_spec
from patternwalks.lindblad import Trajectory, WalkParams, density_from_pattern, evolve, mixing_time


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scenario_mapping(**overrides):
    data = {
        "n": 1,
        "sinks": ["1"],
        "initial": "0",
        "kappa": 0.0,
        "gamma": 1.0,
        "t_max": 5.0,
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    assert raw.endswith("\n")
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_minimal_scenario(self):
        cfg = parse_scenario(scenario_mapping())
        assert cfg.spec.n == 1 and cfg.spec.sinks == (1,) and cfg.params.gamma == 1.0

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"n": 7}, "n"),
            ({"n": "3"}, "n"),
            ({"sinks": []}, "sinks"),
            ({"sinks": ["1", "1"]}, "sinks"),
            ({"sinks": ["0", "1"]}, "sinks"),
            ({"initial": "01"}, "initial"),
            ({"kappa": -1.0}, "kappa"),
            ({"kappa": 0.0, "gamma": 0.0}, "kappa/gamma"),
            ({"dt": 0.02}, "dt"),
            ({"dt": 0.0}, "dt"),
            ({"dt": 0.01, "sample_every": 0.005}, "sample_every"),
            ({"t_max": 0.0}, "t_max"),
            ({"equidistant_rule": "loose"}, "equidistant_rule"),
            ({"threshold_sense": "upside-down"}, "threshold_sense"),
            ({"seed": -1}, "seed"),
            ({"edge_weights": [["0", "1", 0.0]]}, "edge_weights"),
            ({"edge_weights": [["0", "1"]]}, "edge_weights"),
            ({"gamma": -1.0}, "gamma"),
            ({"n": 2, "sinks": ["11"], "initial": "00", "edge_weights": [["00", "11", 2.0]]},
             "edge_weights"),
            ({"edge_weights": [["0", "0", -1.0]]}, "edge_weights"),
            pytest.param({"kappa": 10**400}, "kappa", id="kappa-huge-int"),
            pytest.param({"edge_weights": [["0", "1", 10**400]]}, "edge_weights", id="weight-huge-int"),
            pytest.param({"kappa": 1e300, "gamma": 1e-300}, "kappa/gamma: ", id="ratio-overflow"),
        ],
    )
    def test_field_errors_name_the_field(self, overrides, fragment):
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(scenario_mapping(**overrides))
        assert str(err.value).startswith(fragment)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"kappa_values": [1.0, -1.0]},
             "kappa_values/gamma_values: point (-1, 1): kappa must be >= 0"),
            ({"kappa_values": [0.0, 1.0], "gamma_values": [1.0, 0.0]},
             "kappa_values/gamma_values: point (0, 0): kappa/gamma: may not both be zero"),
            ({"gamma_values": [-0.5]}, "kappa_values/gamma_values"),
            ({"kappa_values": [1.0, "2"]}, "kappa_values"),
            ({"t_max": 0.0}, "t_max"),
            ({"dt": 0.02}, "dt"),
            ({"sinks": ["1", "1"]}, "sinks"),
            pytest.param(
                {"kappa_values": [1.0, 10**400]},
                f"kappa_values/gamma_values: point ({10**400}, 1): kappa must be a finite number",
                id="kappa-huge-int",
            ),
        ],
    )
    def test_sweep_field_errors_name_the_field(self, overrides, fragment):
        data = scenario_mapping(**overrides)
        del data["kappa"], data["gamma"]
        data = {"kappa_values": [1.0], "gamma_values": [1.0]} | data
        with pytest.raises(ConfigurationError) as err:
            parse_sweep(data)
        assert str(err.value).startswith(fragment)

    @pytest.mark.parametrize(
        "overrides, direct",
        [
            ({"sinks": ["1", "1"]}, lambda: make_spec(1, ["1", "1"])),
            ({"sinks": ["0", "1"]}, lambda: make_spec(1, ["0", "1"])),
            ({"n": 2, "sinks": ["11"], "initial": "00", "edge_weights": [["00", "11", 2.0]]},
             lambda: make_spec(2, ["11"], [("00", "11", 2.0)])),
            ({"edge_weights": [["0", "0", -1.0]]},
             lambda: make_spec(1, ["1"], [("0", "0", -1.0)])),
            ({"n": 3, "sinks": ["111"], "initial": "000",
              "edge_weights": [["001", "000", 2.0], ["000", "001", 3.0]]},
             lambda: make_spec(3, ["111"], [("001", "000", 2.0), ("000", "001", 3.0)])),
            ({"kappa": -1.0}, lambda: WalkParams(kappa=-1.0, gamma=1.0)),
            ({"gamma": -1.0}, lambda: WalkParams(kappa=0.0, gamma=-1.0)),
            ({"gamma": 0.0}, lambda: WalkParams(kappa=0.0, gamma=0.0)),
            ({"t_max": -1.0}, lambda: WalkParams(kappa=0.0, gamma=1.0, t_max=-1.0)),
            ({"dt": 0.02}, lambda: WalkParams(kappa=0.0, gamma=1.0, dt=0.02)),
            ({"dt": 0.01, "sample_every": 0.005},
             lambda: WalkParams(kappa=0.0, gamma=1.0, dt=0.01, sample_every=0.005)),
            pytest.param({"equidistant_rule": "loose"}, lambda: make_spec(1, ["1"], rule="loose"),
                         id="rule"),
            pytest.param({"kappa": 1e300, "gamma": 1e-300},
                         lambda: WalkParams(kappa=1e300, gamma=1e-300), id="ratio-overflow"),
        ],
    )
    def test_parser_reports_the_library_check_verbatim(self, overrides, direct):
        with pytest.raises(ConfigurationError) as parsed:
            parse_scenario(scenario_mapping(**overrides))
        with pytest.raises(ConfigurationError) as called:
            direct()
        assert str(parsed.value) == str(called.value)

    @pytest.mark.parametrize(
        "key, value",
        [("threshold_sense", "upside-down"), ("order", "shuffled"), ("max_sweeps", 0),
         ("max_sweeps", 2.5), ("max_sweeps", True), ("seed", -1), ("seed", "5")],
    )
    def test_hopfield_options_report_the_run_check_verbatim(self, key, value):
        with pytest.raises(ConfigurationError) as parsed:
            parse_hopfield({"n": 3, "stored": ["101"], "inputs": ["001"], key: value})
        argument = "sense" if key == "threshold_sense" else key
        with pytest.raises(ConfigurationError) as called:
            hopfield.run_async([0, 0, 1], np.zeros((3, 3)), np.zeros(3), **{argument: value})
        assert str(parsed.value) == str(called.value)
        assert str(parsed.value).startswith(f"{key}: ")

    def test_rule_reaches_the_walk_through_the_spec(self, tmp_path):
        data = scenario_mapping(n=3, sinks=["101", "111"], initial="000", kappa=1.0, t_max=3.0)
        final = {}
        for rule in ("strict", "lte"):
            cfg = parse_scenario(data | {"equidistant_rule": rule})
            assert cfg.spec.rule == rule
            final[rule] = run_simulate(cfg, out_dir=str(tmp_path / rule)).trajectory.populations[-1]
        # coherence crosses the watershed only under "lte", feeding the far sink 111
        assert final["strict"][7] == 0.0 and final["lte"][7] > 0.1

    def test_type_fault_and_unknown_key_come_before_a_value_fault(self):
        # distinct sinks fail in make_spec, which runs only once the JSON is well formed
        with pytest.raises(ConfigurationError, match="^initial:"):
            parse_scenario(scenario_mapping(sinks=["1", "1"], initial=0))
        with pytest.raises(ConfigurationError, match="^colour: not a key"):
            parse_scenario(scenario_mapping(sinks=["1", "1"], colour="red"))

    def test_sweep_requires_value_lists(self):
        data = scenario_mapping(n=2, sinks=["11"], initial="00")
        with pytest.raises(ConfigurationError):
            parse_sweep(data)
        data["kappa_values"] = [0.5]
        data["gamma_values"] = []
        with pytest.raises(ConfigurationError):
            parse_sweep(data)

    def test_sweep_rejects_double_zero_point(self):
        data = scenario_mapping(n=2, sinks=["11"], initial="00")
        data["kappa_values"] = [0.0, 1.0]
        data["gamma_values"] = [0.0, 1.0]
        with pytest.raises(ConfigurationError):
            parse_sweep(data)

    def test_hopfield_requires_patterns(self):
        with pytest.raises(ConfigurationError):
            parse_hopfield({"n": 3, "inputs": ["101"]})
        cfg = parse_hopfield({"n": 3, "stored": ["101"], "inputs": ["001"]})
        assert cfg.stored == ("101",)

    def test_every_key_of_each_kind_is_accepted(self):
        walk = scenario_mapping(
            dt=0.01, sample_every=0.1, edge_weights=[["0", "1", 2.0]],
            equidistant_rule="lte", out="results",
        )
        assert parse_scenario(walk).out == "results"
        sweep = {key: walk[key] for key in walk if key not in ("kappa", "gamma")}
        grid = parse_sweep(sweep | {"kappa_values": [1.0], "gamma_values": [1.0]})
        assert grid.base.spec.edge_weights == ((0, 1, 2.0),)
        cfg = parse_hopfield({
            "n": 3, "stored": ["101"], "inputs": ["001"], "threshold_sense": "as-printed",
            "order": "random", "max_sweeps": 3, "seed": 5, "out": "results",
        })
        assert (cfg.order, cfg.max_sweeps, cfg.seed) == ("random", 3, 5)

    def test_every_demo_config_loads_with_its_command_loader(self):
        loaders = {
            "equidistant_demo.json": load_scenario,
            "hopfield_demo.json": load_hopfield,
            "retrieval_demo.json": load_scenario,
            "sweep_demo.json": load_sweep,
        }
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(loaders)
        for name, loader in loaders.items():
            loader(str(CONFIGS / name))

    def test_sample_count_beyond_the_cap_names_t_max(self):
        data = scenario_mapping(n=2, sinks=["11"], initial="00", t_max=1e300)
        with pytest.raises(ConfigurationError, match="^t_max"):
            parse_scenario(data)
        grid = {key: data[key] for key in data if key not in ("kappa", "gamma")}
        with pytest.raises(ConfigurationError, match="^t_max"):
            parse_sweep(grid | {"kappa_values": [1.0], "gamma_values": [1.0]})

    def test_sample_cap_boundary(self):
        # dt = 0.01 keeps these 1e5 samples within the step cap
        assert parse_scenario(
            scenario_mapping(t_max=100000.0, sample_every=1.0, dt=0.01)
        ).params.t_max == 1e5
        with pytest.raises(ConfigurationError, match="^t_max"):
            parse_scenario(scenario_mapping(t_max=100001.0, sample_every=1.0, dt=0.01))

    def test_step_cap_boundary(self):
        at_cap = scenario_mapping(t_max=10000.0, dt=0.001, sample_every=1.0)
        assert at_cap["t_max"] / at_cap["dt"] == MAX_STEPS
        assert parse_scenario(at_cap).params.dt == 0.001
        with pytest.raises(ConfigurationError, match="^dt"):
            parse_scenario(at_cap | {"t_max": 10000.001})
        grid = {key: at_cap[key] for key in at_cap if key not in ("kappa", "gamma")}
        grid |= {"t_max": 10000.001, "kappa_values": [1.0], "gamma_values": [1.0]}
        with pytest.raises(ConfigurationError, match="^dt"):
            parse_sweep(grid)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            # t_max / dt is 2, but the one stride of 1e6 / 0.01 takes 1e8 steps
            ({"dt": 0.01, "sample_every": 1e6, "t_max": 0.02}, "dt"),
            # t_max / sample_every is 1e5, but 0.014 rounds to one step of
            # 0.01, so the walk would write 140 001 rows
            ({"dt": 0.01, "sample_every": 0.014, "t_max": 1400.0}, "t_max"),
            # sample_every / dt overflows to inf, while t_max / dt is 5e6
            ({"dt": 1e-307, "sample_every": 100.0, "t_max": 5e-301}, "dt"),
        ],
    )
    def test_caps_count_the_rounded_stride(self, overrides, key):
        data = scenario_mapping(**overrides)
        with pytest.raises(ConfigurationError, match=f"^{key}:"):
            parse_scenario(data)
        grid = {k: data[k] for k in data if k not in ("kappa", "gamma")}
        with pytest.raises(ConfigurationError, match=f"^{key}:"):
            parse_sweep(grid | {"kappa_values": [1.0], "gamma_values": [1.0]})

    def test_chain_samples_count_against_the_sample_cap(self):
        # 0.016 rounds up to two steps of 0.01, so the walk takes 90 000
        # samples to t_max = 1800; the classical chain on the same file
        # takes one per 0.016, 112 500 of them
        with pytest.raises(ConfigurationError, match="^t_max"):
            parse_scenario(scenario_mapping(dt=0.01, sample_every=0.016, t_max=1800.0))
        within = scenario_mapping(dt=0.01, sample_every=0.016, t_max=1600.0)
        assert parse_scenario(within).params.t_max == 1600.0

    @pytest.mark.parametrize("second", [["000", "001", 3.0], ["001", "000", 3.0]])
    def test_repeated_edge_weight_pair_rejected(self, second):
        data = scenario_mapping(
            n=3, sinks=["111"], initial="000", edge_weights=[["000", "001", 2.0], second]
        )
        with pytest.raises(ConfigurationError, match="^edge_weights: .*'001'.* twice"):
            parse_scenario(data)
        grid = {key: data[key] for key in data if key not in ("kappa", "gamma")}
        with pytest.raises(ConfigurationError, match="^edge_weights"):
            parse_sweep(grid | {"kappa_values": [1.0], "gamma_values": [1.0]})

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"{not json", id="not-json"),
            # beyond Python's integer-string conversion limit of 4 300 digits
            pytest.param(b'{"n": 1, "kappa": 1' + b"0" * 5000 + b"}", id="5001-digit-int"),
            pytest.param(b"\xff\xfe{}", id="not-utf-8"),
        ],
    )
    def test_load_rejects_bad_json(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError, match="is not valid JSON"):
            load_scenario(str(path))


class TestSimulate:
    def test_two_level_decay_closed_form(self, tmp_path):
        cfg = parse_scenario(scenario_mapping())
        result = run_simulate(cfg, out_dir=str(tmp_path))
        header, rows = read_csv(result.paths[0])
        assert header == ["t", "pattern_0", "pattern_1", "trace_drift", "min_eig", "purity"]
        for cells in rows[:: len(rows) // 10]:
            t, p1 = float(cells[0]), float(cells[2])
            assert abs(p1 - (1.0 - np.exp(-t))) < 1e-6

    def test_probability_columns_are_normalized(self, tmp_path):
        cfg = parse_scenario(
            scenario_mapping(n=3, sinks=["101", "111"], initial="000", kappa=1.0, t_max=4.0)
        )
        result = run_simulate(cfg, out_dir=str(tmp_path))
        _, rows = read_csv(result.paths[0])
        for cells in rows:
            probs = [float(c) for c in cells[1:9]]
            assert all(-1e-12 <= p <= 1.0 + 1e-12 for p in probs)
            assert abs(sum(probs) - 1.0) < 1e-9

    def test_retrieval_scenario_final_row(self, tmp_path):
        cfg = parse_scenario(
            scenario_mapping(n=3, sinks=["101", "111"], initial="000", kappa=1.0, t_max=10.0)
        )
        result = run_simulate(cfg, out_dir=str(tmp_path))
        header, rows = read_csv(result.paths[0])
        nearer = header.index("pattern_101")
        farther = header.index("pattern_111")
        assert float(rows[-1][nearer]) > 0.9
        assert float(rows[-1][farther]) < 0.1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_scenario(
            scenario_mapping(n=2, sinks=["11"], initial="00", kappa=0.7, t_max=3.0)
        )
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            run_simulate(cfg, out_dir=str(out))
            run_classical(cfg, out_dir=str(out))
        for name in ("simulate.csv", "classical.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_equidistant_sink_columns_identical(self, tmp_path):
        cfg = parse_scenario(
            scenario_mapping(n=3, sinks=["011", "101"], initial="000", kappa=1.0, t_max=10.0)
        )
        result = run_simulate(cfg, out_dir=str(tmp_path))
        header, rows = read_csv(result.paths[0])
        a = header.index("pattern_011")
        b = header.index("pattern_101")
        for cells in rows:
            assert abs(float(cells[a]) - float(cells[b])) < 1e-8

    def test_svg_emitted_on_request(self, tmp_path):
        cfg = parse_scenario(scenario_mapping(t_max=2.0))
        result = run_simulate(cfg, out_dir=str(tmp_path), svg=True)
        svg = [p for p in result.paths if p.endswith(".svg")]
        assert svg and (tmp_path / "simulate.svg").read_text().startswith("<svg")


class TestClassicalRunner:
    def test_two_level_decay(self, tmp_path):
        cfg = parse_scenario(scenario_mapping())
        result = run_classical(cfg, out_dir=str(tmp_path))
        header, rows = read_csv(result.paths[0])
        assert header == ["t", "pattern_0", "pattern_1"]
        for cells in rows[:: len(rows) // 10]:
            t, p1 = float(cells[0]), float(cells[2])
            assert abs(p1 - (1.0 - np.exp(-t))) < 1e-9

    def test_matches_walk_in_dissipative_limit(self, tmp_path):
        mapping = scenario_mapping(
            n=3, sinks=["101", "111"], initial="000", kappa=0.0, t_max=5.0
        )
        cfg = parse_scenario(mapping)
        walk = run_simulate(cfg, out_dir=str(tmp_path / "w"))
        chain = run_classical(cfg, out_dir=str(tmp_path / "c"))
        _, walk_rows = read_csv(walk.paths[0])
        _, chain_rows = read_csv(chain.paths[0])
        assert len(walk_rows) == len(chain_rows)
        for wr, cr in zip(walk_rows[::10], chain_rows[::10]):
            for a, b in zip(wr[1:9], cr[1:9]):
                assert abs(float(a) - float(b)) < 1e-6

    def test_one_matrix_exponential_per_run(self, tmp_path, monkeypatch):
        calls = []
        expm = markov.expm

        def counted(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(markov, "expm", counted)
        cfg = parse_scenario(scenario_mapping(n=3, sinks=["101", "111"], initial="000"))
        run_classical(cfg, out_dir=str(tmp_path))
        assert len(calls) == 1


class TestCoinCheck:
    def test_default_grid_rows(self, tmp_path):
        rows, paths = run_coin_check(out_dir=str(tmp_path))
        assert len(rows) == 42  # two kinds per grid value
        header, csv_rows = read_csv(paths[0])
        assert header == ["p", "kind", "deviation", "unitary"]

    def test_half_bias_rows(self, tmp_path):
        rows, _ = run_coin_check([0.5], out_dir=str(tmp_path))
        by_kind = {kind: flag for _, kind, _, flag in rows}
        assert by_kind["neuron"] and by_kind["biased"]

    def test_quarter_bias_deviations(self, tmp_path):
        rows, _ = run_coin_check([0.25], out_dir=str(tmp_path))
        by_kind = {kind: dev for _, kind, dev, _ in rows}
        assert by_kind["neuron"] == pytest.approx(0.5, abs=1e-14)
        assert by_kind["biased"] < 1e-15

    def test_boundary_values_execute(self, tmp_path):
        rows, _ = run_coin_check([0.0, 1.0], out_dir=str(tmp_path))
        assert len(rows) == 4


class TestHopfieldRunner:
    def test_stored_pattern_row(self, tmp_path):
        cfg = parse_hopfield({"n": 4, "stored": ["1010"], "inputs": ["1010", "1011"]})
        rows, paths = run_hopfield(cfg, out_dir=str(tmp_path))
        assert rows[0][0] == "1010" and rows[0][1] == "1010" and rows[0][2] == 0
        assert rows[1][1] == "1010"
        header, csv_rows = read_csv(paths[0])
        assert header == ["input", "output", "steps", "converged", "energy_trace"]
        assert csv_rows[0][3] == "true"

    def test_energy_column_non_increasing(self, tmp_path):
        cfg = parse_hopfield(
            {"n": 5, "stored": ["11010"], "inputs": ["01010", "11011", "10010"]}
        )
        rows, _ = run_hopfield(cfg, out_dir=str(tmp_path))
        for row in rows:
            energies = row[4]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_seeded_random_order_is_byte_identical(self, tmp_path):
        mapping = {
            "n": 5,
            "stored": ["11010", "00111"],
            "inputs": ["01010", "11011", "10111"],
            "order": "random",
            "seed": 31,
        }
        run_hopfield(parse_hopfield(mapping), out_dir=str(tmp_path / "a"))
        run_hopfield(parse_hopfield(mapping), out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "hopfield.csv").read_bytes() == (
            tmp_path / "b" / "hopfield.csv"
        ).read_bytes()


class TestSweepRunner:
    def _grid(self, tmp_path, **extra):
        data = scenario_mapping(n=2, sinks=["11"], initial="00", t_max=20.0)
        data.pop("kappa")
        data.pop("gamma")
        data["kappa_values"] = [0.5, 1.0]
        data["gamma_values"] = [0.0, 1.0]
        data.update(extra)
        return parse_sweep(data)

    def test_rows_sorted_and_zero_gamma_sentinel(self, tmp_path):
        grid = self._grid(tmp_path)
        result = run_sweep(grid, out_dir=str(tmp_path))
        keys = [(g, k) for k, g, _, _ in result.rows]
        assert keys == sorted(keys)
        for kappa, gamma, t_mix, diag in result.rows:
            if gamma == 0.0:
                assert t_mix == 0.0  # sinks unreachable without dissipation
            else:
                assert t_mix > 0.0
            assert diag == ""

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        grid = self._grid(tmp_path)
        first = run_sweep(grid, out_dir=str(tmp_path / "a"))
        second = run_sweep(grid, out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()
        assert first.rows == second.rows

    def test_batched_points_equal_lone_runs(self, tmp_path):
        # One stack holds a gamma = 0 point, healthy points, points RK4 takes
        # out of the physical states and points that overflow; every row and
        # trajectory must be the one a lone evolve of that point gives.
        data = scenario_mapping(
            n=2, sinks=["11"], initial="00", t_max=2.0, dt=0.01,
            edge_weights=[["00", "01", 900.0]],
        )
        data.pop("kappa")
        data.pop("gamma")
        data["kappa_values"] = [0.001, 400.0, 1e200]
        data["gamma_values"] = [0.0, 1.0]
        grid = parse_sweep(data)
        result = run_sweep(grid, out_dir=str(tmp_path))
        cfg = grid.base
        rho0 = density_from_pattern(cfg.initial, cfg.spec.n)
        healthy = []
        for kappa, gamma, t_mix, diag in result.rows:
            params = dataclasses.replace(cfg.params, kappa=kappa, gamma=gamma)
            try:
                lone = evolve(rho0, cfg.spec, params)
            except IntegrationDiagnosticsError as exc:
                assert (t_mix, diag) == (-1.0, str(exc).replace(",", ";"))
                assert (kappa, gamma) not in result.trajectories
                continue
            healthy.append((kappa, gamma))
            assert (t_mix, diag) == (mixing_time(lone), "")
            batched = result.trajectories[(kappa, gamma)]
            assert batched.params == lone.params
            for name in ("times", "populations", "trace_drift", "min_eigenvalue",
                         "purity", "hermiticity"):
                assert np.array_equal(getattr(batched, name), getattr(lone, name)), name
        assert healthy == [(0.001, 0.0), (0.001, 1.0)]
        assert "nan" in result.rows[2][3] and "nan" not in result.rows[1][3]

    def test_failed_point_gets_minus_one_with_diagnostics(self, tmp_path):
        data = scenario_mapping(
            n=2, sinks=["11"], initial="00", t_max=2.0, dt=0.01,
            edge_weights=[["00", "01", 900.0]],
        )
        data.pop("kappa")
        data.pop("gamma")
        data["kappa_values"] = [400.0]
        data["gamma_values"] = [1.0]
        grid = parse_sweep(data)
        result = run_sweep(grid, out_dir=str(tmp_path))
        kappa, gamma, t_mix, diag = result.rows[0]
        assert t_mix == -1.0
        assert "dt" in diag and "," not in diag

    def test_diverged_point_reports_its_largest_entry(self, tmp_path):
        # kappa = 150 at dt = 0.005 diverges before the first sample; the
        # trace of the state cancels to rounding noise, its size does not
        data = scenario_mapping(
            n=4, sinks=["0001", "0111"], initial="1110", t_max=0.1, dt=0.005,
            sample_every=0.05,
        )
        data.pop("kappa")
        data.pop("gamma")
        data["kappa_values"] = [150.0]
        data["gamma_values"] = [0.2]
        grid = parse_sweep(data)
        ((_, _, t_mix, diag),) = run_sweep(grid, out_dir=str(tmp_path)).rows
        assert t_mix == -1.0 and "t = 0.05 " in diag
        with pytest.raises(IntegrationDiagnosticsError) as err:
            evolve(density_from_pattern(grid.base.initial, 4), grid.base.spec, grid.points[0])
        assert err.value.largest_entry > 1e30
        assert f"largest entry {err.value.largest_entry:.3g}" in diag

    def test_overflowing_point_gets_minus_one_and_others_survive(self, tmp_path):
        data = scenario_mapping(n=2, sinks=["11"], initial="00", t_max=20.0)
        data.pop("kappa")
        data.pop("gamma")
        data["kappa_values"] = [1.0, 1e200]
        data["gamma_values"] = [1.0]
        result = run_sweep(parse_sweep(data), out_dir=str(tmp_path))
        (_, _, t_ok, diag_ok), (_, _, t_bad, diag_bad) = result.rows
        assert t_ok > 0.0 and diag_ok == ""
        assert t_bad == -1.0 and "dt" in diag_bad

    def test_heatmap_svg(self, tmp_path):
        grid = self._grid(tmp_path)
        result = run_sweep(grid, out_dir=str(tmp_path), svg=True)
        assert any(p.endswith("sweep.svg") for p in result.paths)


class TestRunnersRunTheParsedObjects:
    """The runners hand the parser's spec and params on, and build neither again."""

    @staticmethod
    def spy(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return calls

    def test_simulate(self, tmp_path, monkeypatch):
        calls = self.spy(monkeypatch, experiments, "evolve")
        cfg = parse_scenario(scenario_mapping(t_max=1.0))
        run_simulate(cfg, out_dir=str(tmp_path))
        ((_, spec, params),) = calls
        assert spec is cfg.spec and params is cfg.params

    def test_sweep(self, tmp_path, monkeypatch):
        calls = self.spy(monkeypatch, experiments, "evolve_batch")
        data = scenario_mapping(n=2, sinks=["11"], initial="00", t_max=1.0)
        del data["kappa"], data["gamma"]
        grid = parse_sweep(data | {"kappa_values": [0.5, 1.0], "gamma_values": [0.0, 1.0]})
        run_sweep(grid, out_dir=str(tmp_path))
        ((_, spec, points),) = calls
        assert spec is grid.base.spec and points is grid.points
        assert [(p.kappa, p.gamma) for p in points] == [(0.5, 0.0), (1.0, 0.0), (0.5, 1.0), (1.0, 1.0)]

    def test_classical(self, tmp_path, monkeypatch):
        calls = self.spy(monkeypatch, experiments, "build_jump_operators")
        cfg = parse_scenario(scenario_mapping(t_max=1.0))
        run_classical(cfg, out_dir=str(tmp_path))
        ((spec,),) = calls
        assert spec is cfg.spec

    def test_one_simulate_command_builds_one_spec(self, tmp_path, monkeypatch, capsys):
        calls = self.spy(monkeypatch, config, "make_spec")
        path = write_config(tmp_path, scenario_mapping(t_max=1.0))
        assert main(["simulate", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


class TestCli:
    def test_simulate_success(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_mapping(t_max=2.0))
        code = main(["simulate", path, "--out", str(tmp_path)])
        assert code == 0
        assert "simulate.csv" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_mapping(n=9))
        code = main(["simulate", path, "--out", str(tmp_path)])
        assert code == 2
        assert "n" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("simulate", "retrieval_demo.json"),
        ("classical", "retrieval_demo.json"),
        ("sweep", "sweep_demo.json"),
        ("hopfield", "hopfield_demo.json"),
        ("coin-check", None),
    ])
    def test_output_path_that_is_a_file_exits_2_before_the_work(
        self, tmp_path, capsys, monkeypatch, command, config
    ):
        def never(*args, **kwargs):
            raise AssertionError("the work started before the output directory was checked")

        for module, name in (
            (experiments, "evolve"), (experiments, "evolve_batch"), (markov, "ctmc_samples"),
            (hopfield, "run_async"), (coins, "is_unitary"),
        ):
            monkeypatch.setattr(module, name, never)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        argv = [command] + ([str(CONFIGS / config)] if config else []) + ["--out", str(blocker)]
        assert main(argv) == 2
        assert "config error: out:" in capsys.readouterr().err

    def test_horizon_shorter_than_one_sample_gives_one_interval(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_mapping(t_max=1e-14))
        assert main(["simulate", path, "--out", str(tmp_path), "--svg"]) == 0
        assert main(["classical", path, "--out", str(tmp_path)]) == 0
        for name in ("simulate.csv", "classical.csv"):
            _, rows = read_csv(str(tmp_path / name))
            assert [cells[0] for cells in rows] == ["0", "0.05"]
        assert (tmp_path / "simulate.svg").read_text().startswith("<svg")

    def test_diagnostics_error_exits_3(self, tmp_path, capsys):
        data = scenario_mapping(
            n=2, sinks=["11"], initial="00", kappa=400.0, t_max=2.0, dt=0.01,
            edge_weights=[["00", "01", 900.0]],
        )
        path = write_config(tmp_path, data)
        code = main(["simulate", path, "--out", str(tmp_path)])
        assert code == 3
        assert "smaller" in capsys.readouterr().err

    def test_state_beyond_the_float_range_reports_an_infinite_largest_entry(self, tmp_path, capsys):
        # the first step overflows and leaves every entry NaN
        data = scenario_mapping(n=2, sinks=["11"], initial="00", kappa=1e200, gamma=1.0, t_max=1.0)
        path = write_config(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path)]) == 3
        assert "largest entry inf)" in capsys.readouterr().err

    def test_sample_count_beyond_the_cap_exits_2(self, tmp_path, capsys):
        data = scenario_mapping(n=2, sinks=["11"], initial="00", t_max=1e300)
        path = write_config(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path)]) == 2
        assert "config error: t_max" in capsys.readouterr().err

    def test_module_entry_point_runs_the_command(self, tmp_path):
        path = write_config(tmp_path, scenario_mapping(n=9))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "patternwalks.cli", "simulate", path, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_overflowing_state_exits_3(self, tmp_path, capsys):
        data = scenario_mapping(n=2, sinks=["11"], initial="00", kappa=1e200, t_max=1.0)
        path = write_config(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path)]) == 3
        assert "smaller" in capsys.readouterr().err

    def test_overflowing_state_prints_no_runtime_warning(self, tmp_path, capsys):
        data = scenario_mapping(n=2, sinks=["11"], initial="00", kappa=1e200, t_max=1.0)
        path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", path, "--out", str(tmp_path)])
        assert code == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_huge_edge_weight_is_reported_by_the_health_check_alone(self, tmp_path, capsys):
        # a weight of 1e308 overflows M at kappa/gamma = 2 and the norm bound
        # of every pair; the pairs take RK4 steps and go unphysical at the
        # first sample, with no numpy warning before the diagnostics
        data = {"n": 3, "sinks": ["101", "111"], "initial": "000", "t_max": 1,
                "edge_weights": [["000", "001", 1e308]]}
        assert main(["simulate", write_config(tmp_path, data), "--out", str(tmp_path / "walk")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("integration diagnostics: state invariants breached at t = 0.05") and "Warning" not in err
        grid = data | {"kappa_values": [1.0, 2.0], "gamma_values": [1.0]}
        assert main(["sweep", write_config(tmp_path, grid), "--out", str(tmp_path / "grid")]) == 0
        assert "Warning" not in capsys.readouterr().err
        _, rows = read_csv(tmp_path / "grid" / "sweep.csv")
        assert [row[:3] for row in rows] == [["1", "1", "-1"], ["2", "1", "-1"]]

    @pytest.mark.parametrize(
        "command, data, flags, key",
        [
            ("simulate", scenario_mapping(kapa=5.0), [], "kapa"),
            ("classical", scenario_mapping(stored=["1"]), [], "stored"),
            ("sweep", {"n": 1, "sinks": ["1"], "initial": "0", "kappa": 7.0,
                       "kappa_values": [1.0], "gamma_values": [1.0]}, [], "kappa"),
            ("hopfield", {"n": 4, "stored": ["1010"], "inputs": ["1011"], "dt": 0.005}, [], "dt"),
            ("hopfield", {"n": 4, "stored": ["1010"], "inputs": ["1011"]},
             ["--seed", "18446744073709551616"], "seed"),
        ],
        ids=["simulate-kapa", "classical-stored", "sweep-kappa", "hopfield-dt", "hopfield-seed-flag"],
    )
    def test_schema_violation_exits_2_naming_the_key(self, tmp_path, capsys, command, data, flags, key):
        path = write_config(tmp_path, data)
        assert main([command, path, "--out", str(tmp_path), *flags]) == 2
        assert f"config error: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("simulate", {"t_max": float("inf")}),
            ("simulate", {"sample_every": float("inf")}),
            ("simulate", {"kappa": float("nan")}),
            ("simulate", {"n": 2, "sinks": ["11"], "initial": "00",
                          "edge_weights": [["00", "01", float("inf")]]}),
            ("sweep", {"kappa_values": [1.0, float("nan")], "gamma_values": [1.0]}),
            ("sweep", {"kappa_values": [1.0], "gamma_values": [float("inf")]}),
            ("simulate", {"kappa": 10**400}),
            ("simulate", {"n": 2, "sinks": ["11"], "initial": "00",
                          "edge_weights": [["00", "01", 10**400]]}),
            ("sweep", {"kappa_values": [1.0, 10**400], "gamma_values": [1.0]}),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, overrides):
        path = write_config(tmp_path, scenario_mapping(**overrides))
        assert main([command, path, "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "classical", "sweep", "hopfield"])
    @pytest.mark.parametrize(
        "content", [b'{"n": 1, "kappa": 1' + b"0" * 5000 + b"}", b"\xff\xfe{}"], ids=["5001-digit-int", "not-utf-8"]
    )
    def test_unreadable_config_file_exits_2_before_the_output_directory(self, tmp_path, capsys, command, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config file {str(path)!r} is not valid JSON")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, strengths",
        [
            ("simulate", {"kappa": 1e300, "gamma": 1e-300}),
            ("classical", {"kappa": 1e300, "gamma": 1e-300}),
            ("sweep", {"kappa_values": [1.0, 1e300], "gamma_values": [1e-300]}),
        ],
    )
    def test_ratio_beyond_the_float_range_exits_2_before_the_output_directory(
        self, tmp_path, capsys, command, strengths
    ):
        data = {"n": 2, "sinks": ["11"], "initial": "00", "t_max": 1.0} | strengths
        path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("config error: kappa")
        assert "kappa/gamma: the ratio 1e+300/1e-300 is beyond the float range" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "classical", "sweep"])
    def test_horizon_beyond_the_float_range_exits_2_before_the_output_directory(self, tmp_path, capsys, command):
        # t_max / stride overflows to inf, which is beyond the sample cap
        data = {"n": 3, "sinks": ["101", "111"], "initial": "000", "t_max": 1e308}
        if command == "sweep":
            data |= {"kappa_values": [1.0], "gamma_values": [1.0]}
        path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err.startswith("config error: t_max: 1e+308 asks for more than 100000 samples")
        assert not (tmp_path / "out").exists()

    def test_integer_numbers_write_the_bytes_of_their_float_twins(self, tmp_path):
        walk = {"n": 3, "sinks": ["101", "111"], "initial": "000"}
        ints = walk | {"kappa": 1, "gamma": 1, "t_max": 10}
        floats = walk | {"kappa": 1.0, "gamma": 1.0, "t_max": 10.0}
        grid_ints = walk | {"kappa_values": [1, 2], "gamma_values": [1], "t_max": 10}
        grid_floats = walk | {"kappa_values": [1.0, 2.0], "gamma_values": [1.0], "t_max": 10.0}
        runs = [("simulate", ints, floats), ("classical", ints, floats), ("sweep", grid_ints, grid_floats)]
        for command, a, b in runs:
            for name, data in (("int", a), ("float", b)):
                path = write_config(tmp_path, data, name=f"{command}-{name}.json")
                assert main([command, path, "--out", str(tmp_path / f"{command}-{name}")]) == 0
            csv = "sweep.csv" if command == "sweep" else f"{command}.csv"
            written = [(tmp_path / f"{command}-{name}" / csv).read_bytes() for name in ("int", "float")]
            assert written[0] == written[1]

    @pytest.mark.parametrize(
        "command, flags",
        [("classical", ["--svg"]), ("simulate", ["--seed", "1"]), ("hopfield", ["--dt", "0.001"])],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, command, flags):
        if command == "hopfield":
            data = {"n": 4, "stored": ["1010"], "inputs": ["1011"]}
        else:
            data = scenario_mapping(t_max=2.0)
        path = write_config(tmp_path, data)
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--out", str(tmp_path), *flags])
        assert exc.value.code == 2

    def test_step_count_beyond_the_cap_exits_2_naming_dt(self, tmp_path, capsys):
        # 1e12 steps of 1e-12: without the cap this would integrate for days
        data = {"n": 1, "sinks": ["1"], "initial": "0", "t_max": 1.0, "dt": 1e-12}
        path = write_config(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path)]) == 2
        assert "config error: dt" in capsys.readouterr().err

    def test_repeated_edge_weight_pair_exits_2_before_the_output_directory(self, tmp_path, capsys):
        data = scenario_mapping(
            n=3, sinks=["111"], initial="000",
            edge_weights=[["000", "001", 2.0], ["001", "000", 3.0]],
        )
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["simulate", path, "--out", str(out)]) == 2
        assert "config error: edge_weights" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_grid_with_the_zero_point_exits_2_before_the_output_directory(
        self, tmp_path, capsys
    ):
        data = scenario_mapping(kappa_values=[0.0, 1.0], gamma_values=[0.0, 1.0])
        del data["kappa"], data["gamma"]
        out = tmp_path / "out"
        assert main(["sweep", write_config(tmp_path, data), "--out", str(out)]) == 2
        assert "config error: kappa_values/gamma_values" in capsys.readouterr().err
        assert not out.exists()

    def test_dt_override_validated(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_mapping(t_max=2.0))
        assert main(["simulate", path, "--out", str(tmp_path), "--dt", "0.5"]) == 2

    def test_coin_check_grid_flag(self, tmp_path, capsys):
        code = main(["coin-check", "--grid", "0.25,0.5", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(str(tmp_path / "coin_check.csv"))
        assert len(rows) == 4

    def test_coin_check_bad_grid(self, tmp_path, capsys):
        assert main(["coin-check", "--grid", "0.5,zebra", "--out", str(tmp_path)]) == 2

    def test_hopfield_command(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"n": 4, "stored": ["1010"], "inputs": ["1011"]}
        )
        assert main(["hopfield", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(str(tmp_path / "hopfield.csv"))
        assert rows[0][1] == "1010"

    def test_classical_command(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario_mapping(t_max=2.0))
        assert main(["classical", path, "--out", str(tmp_path)]) == 0

    def test_sweep_command(self, tmp_path, capsys):
        data = scenario_mapping(n=2, sinks=["11"], initial="00", t_max=10.0)
        data.pop("kappa")
        data.pop("gamma")
        data["kappa_values"] = [1.0]
        data["gamma_values"] = [1.0]
        path = write_config(tmp_path, data)
        assert main(["sweep", path, "--out", str(tmp_path), "--svg"]) == 0
        assert (tmp_path / "sweep.svg").exists()


class TestRealFormatting:
    def test_twelve_significant_digits(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        output.write_sweep_csv(path, [(1.0 / 3.0, 0.05, 1e-12, "")])
        _, rows = read_csv(path)
        assert rows == [["0.333333333333", "0.05", "1e-12", ""]]

    def test_every_trajectory_cell_is_the_twelve_digit_text_of_its_value(self, tmp_path):
        special = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1.0 / 3.0, -2.5e17, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(7)
        scales = 10.0 ** rng.integers(-20, 20, 16)
        values = np.concatenate([special, rng.standard_normal(16) * scales])
        table = values[:25].reshape(5, 5)  # t, two patterns, trace_drift, min_eig; purity below
        traj = Trajectory(
            times=table[:, 0], populations=table[:, 1:3], trace_drift=table[:, 3],
            min_eigenvalue=table[:, 4], purity=-table[:, 0], hermiticity=np.zeros(5),
            sink_indices=(1,), params=WalkParams(kappa=1.0, gamma=1.0),
        )
        path = str(tmp_path / "simulate.csv")
        output.write_trajectory_csv(path, traj, 1)
        header, rows = read_csv(path)
        assert header == ["t", "pattern_0", "pattern_1", "trace_drift", "min_eig", "purity"]
        expected = np.column_stack([table, -table[:, 0]])
        assert rows == [[format(float(x), ".12g") for x in row] for row in expected]
        assert rows[0][:4] == ["-0", "4.94065645841e-324", "1e-300", "0.3"]

    @staticmethod
    def _cell_by_cell(header, table):
        """The CSV text with every cell formatted on its own."""
        lines = [header] + [",".join("%.12g" % x for x in row) for row in table.tolist()]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def _assert_classical_bytes(self, tmp_path, patterns, times=None):
        times = np.arange(patterns.shape[0]) * 0.05 if times is None else times
        path = tmp_path / "classical.csv"
        output.write_classical_csv(str(path), times, patterns, 2)
        header = "t,pattern_00,pattern_01,pattern_10,pattern_11"
        assert path.read_bytes() == self._cell_by_cell(header, np.column_stack([times, patterns]))
        return path.read_text()

    def test_all_positive_zero_column(self, tmp_path):
        patterns = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.25, 0.0, 0.75, 0.0]])
        self._assert_classical_bytes(tmp_path, patterns)

    def test_column_zero_in_every_row_but_one(self, tmp_path):
        patterns = np.zeros((5, 4))
        patterns[:, 0] = 1.0
        patterns[3] = [0.75, 1e-300, 0.0, 0.25]
        self._assert_classical_bytes(tmp_path, patterns)

    def test_negative_zero_column_still_prints_minus_zero(self, tmp_path):
        patterns = np.zeros((3, 4))
        patterns[:, 0] = 1.0
        patterns[:, 2] = -0.0
        patterns[1, 3] = -0.0
        text = self._assert_classical_bytes(tmp_path, patterns)
        assert text.splitlines()[1] == "0,1,0,-0,0"
        assert text.splitlines()[2] == "0.05,1,0,-0,-0"

    def test_nan_column_is_formatted(self, tmp_path):
        patterns = np.zeros((3, 4))
        patterns[:, 3] = [0.0, np.nan, 0.0]
        self._assert_classical_bytes(tmp_path, patterns)

    def test_all_zero_table(self, tmp_path):
        # no column is formatted: the row format holds no conversion at all
        text = self._assert_classical_bytes(tmp_path, np.zeros((3, 4)), times=np.zeros(3))
        assert text.splitlines()[1:] == ["0,0,0,0,0"] * 3

    def test_dissipative_only_walk_is_cell_by_cell(self, tmp_path):
        # at kappa = 0 the walk, like the chain, leaves most patterns at +0.0
        cfg = load_scenario(write_config(tmp_path, scenario_mapping(
            n=4, sinks=["1011", "1111"], initial="0000", kappa=0.0, t_max=2.0,
        )))
        traj = run_simulate(cfg, out_dir=str(tmp_path)).trajectory
        table = np.column_stack(
            [traj.times, traj.populations, traj.trace_drift, traj.min_eigenvalue, traj.purity]
        )
        assert ((traj.populations == 0) & ~np.signbit(traj.populations)).all(axis=0).any()
        header = (tmp_path / "simulate.csv").read_text().splitlines()[0]
        assert (tmp_path / "simulate.csv").read_bytes() == self._cell_by_cell(header, table)


class TestSvg:
    def test_polylines_are_the_per_point_text(self, tmp_path):
        # the whole-array coordinates format to the same text as the
        # per-point formula, point by point
        x = np.linspace(0.0, 2.5, 51)
        rng = np.random.default_rng(11)
        series = {
            "pattern_00": rng.random(51),
            "pattern_01": -rng.random(51) * 1e-3,
            "pattern_10": np.linspace(0.0, 1.0, 51) ** 3,
            "pattern_11": list(1.0 - np.linspace(0.0, 1.0, 51) ** 3),
        }
        path = tmp_path / "plot.svg"
        output.svg_line_plot(str(path), x, series, "walk", "t", "population")
        y_min = min(float(np.min(v)) for v in series.values())
        y_max = max(float(np.max(v)) for v in series.values())

        def sx(v):
            return output._ML + (v - x[0]) / (x[-1] - x[0]) * (output._W - output._ML - output._MR)

        def sy(v):
            return output._H - output._MB - (v - y_min) / (y_max - y_min) * (output._H - output._MT - output._MB)

        expected = [
            " ".join(f"{sx(float(xv)):.2f},{sy(float(yv)):.2f}" for xv, yv in zip(x, values))
            for values in series.values()
        ]
        assert re.findall('<polyline points="([^"]*)"', path.read_text()) == expected

