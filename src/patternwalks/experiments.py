"""Scenario runners behind the CLI.

Each runner turns a parsed configuration into library calls and writes
the canonical CSV (plus an optional SVG sketch). Runners return both the
written paths and the in-memory results so they can be driven from tests
without touching the filesystem output twice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import coins, hopfield, markov, output
from .config import HopfieldConfig, SweepGrid, WalkConfig
from .errors import ConfigurationError, IntegrationDiagnosticsError
from .hypercube import build_jump_operators, index_pattern, vertex_index
from .lindblad import Trajectory, density_from_pattern, evolve, evolve_batch, mixing_time, sample_grid

__all__ = [
    "SimulateResult",
    "SweepResult",
    "run_simulate",
    "run_classical",
    "run_sweep",
    "run_coin_check",
    "run_hopfield",
]

DEFAULT_COIN_GRID = tuple(i / 20 for i in range(21))


def _resolve_out_dir(cfg_out: str | None, out_dir: str | None) -> str:
    """Create the output directory; each runner calls this before its work."""
    target = out_dir or cfg_out or "."
    try:
        os.makedirs(target, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"out: cannot create output directory {target!r}: {exc}") from exc
    return target


@dataclass
class SimulateResult:
    trajectory: Trajectory | None
    paths: list = field(default_factory=list)


@dataclass
class SweepResult:
    rows: list  # (kappa, gamma, mixing_time, diagnostics) sorted by (gamma, kappa)
    trajectories: dict  # (kappa, gamma) -> Trajectory, absent for failed points
    paths: list = field(default_factory=list)


def run_simulate(cfg: WalkConfig, out_dir: str | None = None, svg: bool = False) -> SimulateResult:
    """Evolve one walk scenario and write its trajectory CSV."""
    target = _resolve_out_dir(cfg.out, out_dir)
    spec, params = cfg.spec, cfg.params
    rho0 = density_from_pattern(cfg.initial, spec.n)
    traj = evolve(rho0, spec, params)

    csv_path = os.path.join(target, "simulate.csv")
    output.write_trajectory_csv(csv_path, traj)
    paths = [csv_path]
    if svg:
        svg_path = os.path.join(target, "simulate.svg")
        series = {
            index_pattern(v, spec.n): traj.populations[:, v]
            for v in range(spec.dim)
        }
        output.svg_line_plot(
            svg_path, traj.times, series,
            title=f"firing-pattern populations (kappa={params.kappa:g}, gamma={params.gamma:g})",
            x_label="t (1/gamma units)", y_label="probability",
        )
        paths.append(svg_path)
    return SimulateResult(trajectory=traj, paths=paths)


def run_classical(cfg: WalkConfig, out_dir: str | None = None) -> SimulateResult:
    """Continuous-time classical chain over the same jump structure."""
    target = _resolve_out_dir(cfg.out, out_dir)
    spec, stride = cfg.spec, cfg.params.sample_every
    jumps = build_jump_operators(spec)
    q = markov.rate_matrix_from_jumps(jumps, spec.dim)
    pi0 = np.zeros(spec.dim)
    pi0[vertex_index(cfg.initial)] = 1.0

    # The chain steps once per sample, for at least one interval.
    _, times = sample_grid(stride, stride, cfg.params.t_max)
    dists = markov.ctmc_samples(q, pi0, stride, times.size - 1)

    csv_path = os.path.join(target, "classical.csv")
    output.write_classical_csv(csv_path, times, dists)
    return SimulateResult(trajectory=None, paths=[csv_path])


def run_sweep(
    grid: SweepGrid,
    out_dir: str | None = None,
    svg: bool = False,
) -> SweepResult:
    """Mixing time per (kappa, gamma) grid point, rows sorted by (gamma, kappa).

    The points are integrated together (see ``lindblad.evolve_batch``);
    a point whose integration fails is reported as -1, and the others
    keep the outcomes of their lone runs.
    """
    cfg = grid.base
    target = _resolve_out_dir(cfg.out, out_dir)
    rho0 = density_from_pattern(cfg.initial, cfg.spec.n)
    outcomes = evolve_batch(rho0, cfg.spec, grid.points)
    results = []
    for params, outcome in zip(grid.points, outcomes):
        k, g = params.kappa, params.gamma
        if isinstance(outcome, IntegrationDiagnosticsError):
            # Distinct from the non-convergence sentinel 0: the point failed.
            results.append((k, g, -1.0, str(outcome).replace(",", ";"), None))
        else:
            results.append((k, g, mixing_time(outcome), "", outcome))

    results.sort(key=lambda r: (r[1], r[0]))
    rows = [(k, g, tm, diag) for k, g, tm, diag, _ in results]
    trajectories = {(k, g): traj for k, g, _, _, traj in results if traj is not None}

    csv_path = os.path.join(target, "sweep.csv")
    output.write_sweep_csv(csv_path, rows)
    paths = [csv_path]
    if svg:
        svg_path = os.path.join(target, "sweep.svg")
        kappas = sorted({p.kappa for p in grid.points})
        gammas = sorted({p.gamma for p in grid.points})
        lookup = {(k, g): tm for k, g, tm, _ in rows}
        cells = np.array([[lookup[(k, g)] for k in kappas] for g in gammas])
        output.svg_heatmap(
            svg_path, kappas, gammas, cells,
            title="mixing time (1/gamma units)", x_label="kappa", y_label="gamma",
        )
        paths.append(svg_path)
    return SweepResult(rows=rows, trajectories=trajectories, paths=paths)


def run_coin_check(grid_values=None, out_dir: str | None = None) -> tuple[list, list]:
    """Unitarity deviations of the neuron and biased coins over a p grid."""
    target = _resolve_out_dir(None, out_dir)
    values = tuple(DEFAULT_COIN_GRID if grid_values is None else grid_values)
    rows = []
    for p in values:
        for kind, factory in (("neuron", coins.neuron_coin), ("biased", coins.biased_coin)):
            report = coins.is_unitary(factory(p))
            rows.append((p, kind, report.deviation, report.unitary))
    csv_path = os.path.join(target, "coin_check.csv")
    output.write_coin_csv(csv_path, rows)
    return rows, [csv_path]


def run_hopfield(cfg: HopfieldConfig, out_dir: str | None = None) -> tuple[list, list]:
    """Classical retrieval baseline: one row per input pattern."""
    target = _resolve_out_dir(cfg.out, out_dir)
    stored = [hopfield.parse_pattern(p) for p in cfg.stored]
    weights = hopfield.hebbian_store(stored)
    theta = hopfield.zero_thresholds(cfg.n)
    rows = []
    for text in cfg.inputs:
        state = hopfield.parse_pattern(text)
        run = hopfield.run_async(
            state, weights, theta,
            order=cfg.order, max_sweeps=cfg.max_sweeps,
            seed=cfg.seed, sense=cfg.threshold_sense,
        )
        energies = [hopfield.energy(s, weights, theta) for s in run.states]
        rows.append(
            (text, hopfield.format_pattern(run.final), run.flips, run.converged, energies)
        )
    csv_path = os.path.join(target, "hopfield.csv")
    output.write_hopfield_csv(csv_path, rows)
    return rows, [csv_path]
