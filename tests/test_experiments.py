import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from patternwalks.cli import main
from patternwalks.config import (
    build_params,
    build_spec,
    load_hopfield,
    load_scenario,
    load_sweep,
    parse_hopfield,
    parse_scenario,
    parse_sweep,
)
from patternwalks.errors import ConfigurationError, IntegrationDiagnosticsError
from patternwalks.experiments import (
    run_classical,
    run_coin_check,
    run_hopfield,
    run_simulate,
    run_sweep,
)
from patternwalks.lindblad import density_from_pattern, evolve, mixing_time


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
        assert cfg.n == 1 and cfg.sinks == ("1",) and cfg.gamma == 1.0

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
        ],
    )
    def test_field_errors_name_the_field(self, overrides, fragment):
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(scenario_mapping(**overrides))
        assert fragment in str(err.value)

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
        assert grid.base.edge_weights == (("0", "1", 2.0),)
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
        assert parse_scenario(scenario_mapping(t_max=100000.0, sample_every=1.0)).t_max == 1e5
        with pytest.raises(ConfigurationError, match="^t_max"):
            parse_scenario(scenario_mapping(t_max=100001.0, sample_every=1.0))

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
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
        run_simulate(cfg, out_dir=str(a))
        run_simulate(cfg, out_dir=str(b))
        assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()

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
        spec = build_spec(cfg)
        rho0 = density_from_pattern(cfg.initial, cfg.n)
        healthy = []
        for kappa, gamma, t_mix, diag in result.rows:
            params = build_params(cfg, kappa=kappa, gamma=gamma)
            try:
                lone = evolve(rho0, spec, params, rule=cfg.equidistant_rule)
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

    def test_diagnostics_error_exits_3(self, tmp_path, capsys):
        data = scenario_mapping(
            n=2, sinks=["11"], initial="00", kappa=400.0, t_max=2.0, dt=0.01,
            edge_weights=[["00", "01", 900.0]],
        )
        path = write_config(tmp_path, data)
        code = main(["simulate", path, "--out", str(tmp_path)])
        assert code == 3
        assert "smaller" in capsys.readouterr().err

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
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, overrides):
        path = write_config(tmp_path, scenario_mapping(**overrides))
        assert main([command, path, "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err

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
        from patternwalks.output import fmt_real

        assert fmt_real(1.0 / 3.0) == "0.333333333333"
        assert fmt_real(0.05) == "0.05"
        assert fmt_real(1e-12) == "1e-12"
