"""Seeded mutations of the demo configs, run through ``cli.main``.

Each case takes a demo config, replaces one or two keys with values from
a fixed pool and runs its command in-process. Every value in the pool is
invalid for a key, or valid and cheap: no pattern has more than 4 bits,
no number that could be a valid horizon or ``sample_every`` exceeds 2,
and no valid ``dt`` is below 0.001, so a valid walk takes at most 2 000
steps of dt and no case needs a timer. The draws come from
``random.Random`` with fixed seeds, so every run tries the same configs.
"""

import json
import random
import warnings

import numpy as np

from patternwalks.cli import main
from patternwalks.config import parse_scenario, parse_sweep
from patternwalks.experiments import run_simulate, run_sweep
from patternwalks.hypercube import build_hamiltonian, build_jump_operators
from patternwalks.lindblad import density_from_pattern
from patternwalks.numerics import expm

from oracles import dense_jump_matrices, superoperator_populations
from test_experiments import CONFIGS

# The demos at a horizon of one time unit: (command, config).
BASES = [
    ("simulate", json.loads((CONFIGS / "retrieval_demo.json").read_text()) | {"t_max": 1.0}),
    ("classical", json.loads((CONFIGS / "retrieval_demo.json").read_text()) | {"t_max": 1.0}),
    ("sweep", json.loads((CONFIGS / "sweep_demo.json").read_text()) | {"t_max": 1.0}),
    ("hopfield", json.loads((CONFIGS / "hopfield_demo.json").read_text())),
]

# Keys a case may replace beyond those of its base; "bogus" is no key.
EXTRA_KEYS = {
    "simulate": ["edge_weights", "equidistant_rule", "bogus"],
    "classical": ["edge_weights", "equidistant_rule", "bogus"],
    "sweep": ["edge_weights", "equidistant_rule", "sample_every", "kappa", "bogus"],
    "hopfield": ["max_sweeps", "dt", "bogus"],
}

POOL = [
    None, True, False, 0, 1, 2, -1, 2**64, 10**400,
    0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 0.001, 0.01, 1e-300, 5e-324, 1e300, 1e308,
    float("nan"), float("inf"),
    "", "abc", "0", "000", "011", "1010", "0000", "lte", "strict", "random", "as-printed",
    [], [[]], [1.0], [0.0], [-0.0, 1.0], [1.0, 2.0], [1e308], [1e-300, 1.0], [[1.0]], [True], [None],
    ["000"], ["111", "000"], ["0000", "1111"], ["1010", "0101"], ["101", "101"],
    [["000", "001", 2.0]], [["000", "000", 2.0]], [["000", "001", 1e308]], [["000", "001", -1.0]],
    [["0000", "0001", 1e308]], [["0000", "0000", 2.0]], [["000", "011", 2.0]], [["000", "001"]],
    {}, {"n": 3},
]

# Values near the valid ones of a key, drawn for it half of the time.
NEAR = {
    "n": [3, 4, 5, 7],
    "sinks": [["101"], ["000", "111"], ["101", "011", "110"], ["1011"], ["1111", "0000"], ["0110", "1111"]],
    "initial": ["000", "111", "101", "0000", "1011", "0111"],
    "kappa": [0.0, 0.3, 12.0, 20.0, 150.0, 1e300],
    "gamma": [0.0, 0.3, 1e-300, 1e300],
    "kappa_values": [[0.0], [0.0, 1.0], [12.0, 150.0], [1e300], [20.0, 0.2]],
    "gamma_values": [[0.0], [0.0, 1.0], [1e-300], [1e300, 1.0]],
    "t_max": [0.05, 0.3, 1e-14, 2.0, 1e5],
    "dt": [0.001, 0.0101, 1e-12],
    "sample_every": [0.005, 0.1, 0.001, 1e308],
    # Edge weights on patterns of 3 bits, widened to the base's n.
    "edge_weights": [
        [["000", "001", 1e300]], [["000", "001", 1e308]], [["000", "010", 0.5], ["001", "011", 3.0]],
        [["000", "001", 1.0], ["001", "000", 1.0]], [["010", "010", 3.0]], [["000", "001", 5e-324]],
    ],
    "equidistant_rule": ["lte", "strict", "nearest"],
    "stored": [["1010", "0101"], ["0000", "1111"], ["101"], []],
    "inputs": [["1010"], ["0000", "1111", "0110"], ["101"]],
    "threshold_sense": ["standard", "as-printed", "inverted"],
    "order": ["cyclic", "random", "sorted"],
    "max_sweeps": [0, 1, 2**40],
    "seed": [0, 2**63, -1],
}

CASES_PER_BASE = 150


def cases():
    """``(command, config)`` of every case, drawn with fixed seeds."""
    for index, (command, base) in enumerate(BASES):
        rng = random.Random(index)
        keys = sorted(base) + EXTRA_KEYS[command]
        for _ in range(CASES_PER_BASE):
            config = dict(base)
            for key in rng.sample(keys, rng.choice([1, 2])):
                value = rng.choice(NEAR[key] if key in NEAR and rng.random() < 0.5 else POOL)
                if key == "edge_weights" and value in NEAR[key]:
                    value = [["0" * (base["n"] - 3) + u, "0" * (base["n"] - 3) + v, w] for u, v, w in value]
                config[key] = value
            yield command, config


def test_mutated_demo_configs_exit_cleanly(tmp_path, capsys):
    # every case exits 0, 2 or 3 with no warning; an exit 2 prints one
    # "config error:" line and creates no --out
    exits = set()
    for case, (command, config) in enumerate(cases()):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / f"out{case}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == [], (command, config)
        assert "Warning" not in err, (command, config, err)
        assert code in (0, 2, 3), (command, config, code, err)
        if code == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1, (command, config, err)
            assert not out.exists(), (command, config)
        exits.add(code)
    # the pool reaches every exit code
    assert exits == {0, 2, 3}


def test_fallback_configs_are_exact_or_fail_on_the_budget(tmp_path):
    # the three configs of these draws whose pairs once fell back to RK4
    # steps of dt, 8.2e-4, 0.010 and 0.307 off the oracle with exit 0: the
    # retrieval demo at gamma = 0.01 and the sweep demo with kappa_values
    # [20, 0.2] and [12, 150], at t_max 1. Each point now matches the
    # superoperator oracle at every sample, or fails before its first step
    # on dt's budget (-1 in a sweep)
    retrieval, sweep = (
        json.loads((CONFIGS / f"{name}_demo.json").read_text()) | {"t_max": 1.0} for name in ("retrieval", "sweep")
    )
    cfg = parse_scenario(retrieval | {"gamma": 0.01})
    points = [(cfg, cfg.params.kappa, cfg.params.gamma, run_simulate(cfg, out_dir=str(tmp_path)).trajectory, "")]
    for kappas in ([20.0, 0.2], [12.0, 150.0]):
        grid = parse_sweep(sweep | {"kappa_values": kappas})
        result = run_sweep(grid, out_dir=str(tmp_path))
        points += [(grid.base, k, g, result.trajectories.get((k, g)), diag) for k, g, t_mix, diag in result.rows]
    exact = 0
    for cfg, kappa, gamma, traj, diag in points:
        if traj is None:
            assert diag.startswith("no exact schedule within the budget: a sample stride needs"), diag
            assert diag.endswith("Taylor stages but dt = 0.005 allows 120; rerun with a smaller dt"), diag
            continue
        spec = cfg.spec
        rho0 = density_from_pattern(cfg.initial, spec.n)
        mats = dense_jump_matrices(build_jump_operators(spec), spec.dim)
        oracle = superoperator_populations(build_hamiltonian(spec), mats, kappa / gamma, 1.0, rho0, traj.times, expm)
        assert np.max(np.abs(traj.populations - oracle)) < 1e-12, (kappa, gamma)
        exact += 1
    assert (exact, len(points) - exact) == (15, 6)
