"""Seeded workload definitions: configs, CLI arguments and operation counts.

A seed draws two sinks and an initial pattern whose nearest sink is
unique and at least two flips away. Everything else (grid, horizon,
step) is fixed, so the work in one run does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# Demo 5x5 strength grid of configs/sweep_demo.json plus one strong-kappa
# column whose points all go unphysical under RK4 at dt = 0.005, so the
# -1 sentinel path is timed on every draw. At kappa = 40 the number of
# failing points was 2, 3 or 4 depending on the sinks (14, 20 and 6 of
# 40 draws), which made the work depend on the seed; at kappa = 150 all
# five fail at the first sample on every draw tried (199 of 199).
SWEEP_KAPPAS = (0.2, 0.65, 1.1, 1.55, 2.0, 150.0)
SWEEP_GAMMAS = (0.2, 0.65, 1.1, 1.55, 2.0)
DT = 0.005
SAMPLE_EVERY = 0.05

# Horizons per size. "full" is the measured size: long enough that most
# n = 4 points and every n = 6 draw tried reach the sink threshold, short
# enough that one run holds several repetitions. "tiny" is the smoke size.
HORIZONS = {
    "full": {"sweep": 6.0, "scenario": 20.0},
    "tiny": {"sweep": 0.2, "scenario": 0.5},
}
WARM_T_MAX = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    n: int
    svg: bool


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-n4", "sweep", 4, False),
        Workload("simulate-n6", "simulate", 6, True),
        Workload("classical-n6", "classical", 6, False),
    )
}


def _bits(v: int, n: int) -> str:
    return format(v, f"0{n}b")


def _max_out_degree(n: int, sinks) -> int:
    """Most jumps leaving one vertex: neighbours strictly nearer the sinks."""
    dist = [min(bin(v ^ s).count("1") for s in sinks) for v in range(1 << n)]
    return max(sum(dist[v ^ (1 << b)] < dist[v] for b in range(n)) for v in range(1 << n))


def draw_scenario(n: int, seed: int) -> tuple[list[str], str]:
    """Two sinks and an initial pattern with a unique nearest sink >= 2 flips away.

    The draw also requires a vertex with all n jumps leaving it, so the
    largest exit rate of the generator, which sets how many squarings
    ``expm`` needs, is the same on every seed (it ranged from 3 to 6).
    """
    rng = random.Random(f"{n}:{seed}")
    while True:
        sinks = rng.sample(range(1 << n), 2)
        initial = rng.randrange(1 << n)
        near, far = sorted(bin(initial ^ s).count("1") for s in sinks)
        if near >= 2 and near < far and _max_out_degree(n, sinks) == n:
            return [_bits(s, n) for s in sinks], _bits(initial, n)


def make_config(workload: Workload, seed: int, size: str = "full", t_max: float | None = None) -> dict:
    """The JSON config the program receives for one workload and seed."""
    sinks, initial = draw_scenario(workload.n, seed)
    horizon = HORIZONS[size]["sweep" if workload.command == "sweep" else "scenario"]
    cfg = {
        "n": workload.n,
        "sinks": sinks,
        "initial": initial,
        "t_max": horizon if t_max is None else t_max,
        "dt": DT,
        "sample_every": SAMPLE_EVERY,
    }
    if workload.command == "sweep":
        cfg["kappa_values"] = list(SWEEP_KAPPAS)
        cfg["gamma_values"] = list(SWEEP_GAMMAS)
    else:
        cfg["kappa"] = 1.0
        cfg["gamma"] = 1.0
    return cfg


def write_config(path: str, cfg: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return path


def cli_args(workload: Workload, config_path: str, out_dir: str) -> list[str]:
    args = [workload.command, config_path, "--out", out_dir]
    if workload.svg:
        args.append("--svg")
    return args


def ops_per_run(workload: Workload, cfg: dict) -> int:
    """Operations in one command: each sweep point counts as one."""
    if workload.command == "sweep":
        return len(cfg["kappa_values"]) * len(cfg["gamma_values"])
    return 1
