"""Correctness checks on the outputs of one workload command.

They run outside the timed region. Expected values come from the
independent oracles in ``tests/oracles.py`` (brute-force jump rule,
truncated series, dense superoperator), never from the package code
under measurement; only the tolerance table is read from the package.
"""

from __future__ import annotations

import math
import os
import sys
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np

# Slack for roundoff between two correct evaluations of the same
# propagation (different operation order, 12-digit CSV rounding).
ROUNDOFF = 1e-8


def load_references(root: str):
    """The oracles module and the package's tolerance table."""
    for sub in ("tests", "src"):
        path = os.path.join(root, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import oracles
    from patternwalks import constants

    return oracles, constants


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _index(pattern: str) -> int:
    return int(pattern, 2)


def _nearest_sink(cfg: dict) -> tuple[int, int]:
    init = _index(cfg["initial"])
    sinks = sorted((bin(init ^ _index(s)).count("1"), _index(s)) for s in cfg["sinks"])
    return sinks[0][1], sinks[1][1]


def _sample_grid(cfg: dict) -> np.ndarray:
    steps_per_sample = max(1, int(round(cfg["sample_every"] / cfg["dt"])))
    sample_dt = steps_per_sample * cfg["dt"]
    n_samples = int(math.ceil(cfg["t_max"] / sample_dt - 1e-12))
    return np.arange(n_samples + 1) * sample_dt


class Oracle:
    """Master-equation and chain ingredients built by brute force."""

    def __init__(self, oracles, cfg: dict):
        self.o = oracles
        n = cfg["n"]
        self.n = n
        self.dim = 1 << n
        self.sinks = [_index(s) for s in cfg["sinks"]]
        self.rho0 = np.zeros((self.dim, self.dim), dtype=complex)
        self.rho0[_index(cfg["initial"]), _index(cfg["initial"])] = 1.0
        self.jumps = sorted(oracles.brute_force_jumps(n, self.sinks, strict=True))
        # Strict rule: an edge whose ends are equidistant from the sinks is
        # dropped from the coherent part as well as from the jumps.
        dist = [min(oracles.bit_distance(v, s) for s in self.sinks) for v in range(self.dim)]
        h = oracles.brute_force_adjacency(n, self.sinks).astype(complex)
        for i in range(self.dim):
            for j in range(self.dim):
                if i != j and dist[i] == dist[j]:
                    h[i, j] = 0.0
        self.h = h

    def jump_mats(self):
        ops = [SimpleNamespace(src=s, dst=d) for s, d in self.jumps]
        return self.o.dense_jump_matrices(ops, self.dim)

    def rate_matrix(self) -> np.ndarray:
        q = np.zeros((self.dim, self.dim))
        for src, dst in self.jumps:
            q[dst, src] += 1.0
            q[src, src] -= 1.0
        return q

    def expm(self, a) -> np.ndarray:
        """Scaling and squaring around the oracle's plain Taylor series."""
        a = np.asarray(a, dtype=complex)
        norm = float(np.max(np.sum(np.abs(a), axis=0)))
        squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
        out = self.o.taylor_expm(a / 2.0**squarings, terms=20)
        for _ in range(squarings):
            out = out @ out
        return out

    @staticmethod
    def rk4_propagator(substeps: int):
        """Exact RK4 map of ``substeps`` steps over the interval ``a`` spans."""

        def prop(a):
            z = np.asarray(a, dtype=complex) / substeps
            eye = np.eye(z.shape[0], dtype=complex)
            z2 = z @ z
            step = eye + z + z2 / 2 + (z2 @ z) / 6 + (z2 @ z2) / 24
            return np.linalg.matrix_power(step, substeps)

        return prop


def _strengths(kappa: float, gamma: float) -> tuple[float, float]:
    # Times are in 1/gamma units: the dissipator has unit strength and the
    # commutator carries kappa/gamma; gamma = 0 runs in plain time.
    return (kappa / gamma, 1.0) if gamma > 0 else (kappa, 0.0)


def _mixing_consistent(t_mix, times, ref, sinks, tol, constants) -> bool:
    """Is ``t_mix`` the mixing time of populations within ``tol`` of ``ref``?"""
    final = ref[-1]
    absorbed = float(final[sinks].sum())
    if t_mix == 0:
        return absorbed < constants.SINK_THRESHOLD + tol
    if absorbed < constants.SINK_THRESHOLD - tol:
        return False
    hits = np.nonzero(np.abs(times - t_mix) < 1e-9)[0]
    if hits.size != 1:
        return False
    k = int(hits[0])
    deviation = np.max(np.abs(ref - final), axis=1)
    eps = constants.MIXING_EPS
    settled = bool(np.all(deviation[k:] < eps + 2 * tol))
    return settled and (k == 0 or deviation[k - 1] >= eps - 2 * tol)


def _rk4_goes_unphysical(oracle, sup, cfg, times, constants) -> bool:
    """Does exact RK4 arithmetic at the config's step breach an abort level?

    Either cause counts: growth (a step amplification above 1, which
    ``np.linalg.eigvals`` of the superoperator shows) or loss of
    positivity at amplification 1, which only propagation shows.
    """
    substeps = max(1, int(round(cfg["sample_every"] / cfg["dt"])))
    step = oracle.rk4_propagator(substeps)(sup * (times[1] - times[0]))
    vec = oracle.rho0.reshape(-1, order="F")
    for _ in times[1:]:
        vec = step @ vec
        rho = vec.reshape(oracle.dim, oracle.dim, order="F")
        drift = abs(float(np.trace(rho).real) - 1.0)
        if not np.all(np.isfinite(rho)) or drift > constants.TRACE_ABORT:
            return True
        if float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)))) < constants.EIGENVALUE_ABORT:
            return True
    return False


def check_sweep(oracles, constants, cfg: dict, out_dir: str, capture: dict) -> list[str]:
    """Failed points of a sweep, as messages; one message per failed point."""
    oracle = Oracle(oracles, cfg)
    mats = oracle.jump_mats()
    substeps = max(1, int(round(cfg["sample_every"] / cfg["dt"])))
    times = _sample_grid(cfg)
    header, rows = read_csv(os.path.join(out_dir, "sweep.csv"))
    expected = sorted(((k, g) for k in cfg["kappa_values"] for g in cfg["gamma_values"]),
                      key=lambda p: (p[1], p[0]))
    if header != ["kappa", "gamma", "mixing_time", "diagnostics"]:
        return [f"sweep.csv header {header}"] * len(expected)
    failures = [f"point {p}: missing from sweep.csv" for p in expected[len(rows):]]
    failures += [f"unexpected row {r}" for r in rows[len(expected):]]
    for (kappa, gamma), row in zip(expected, rows):
        where = f"point kappa={kappa:g} gamma={gamma:g}"
        if (float(row[0]), float(row[1])) != (kappa, gamma):
            failures.append(f"{where}: row out of order ({row[0]}, {row[1]})")
            continue
        t_mix = float(row[2])
        diag = row[3] if len(row) > 3 else ""
        ke, ge = _strengths(kappa, gamma)
        sup = oracles.liouvillian_matrix(oracle.h, mats, ke, ge)
        if t_mix == -1:
            if not diag:
                failures.append(f"{where}: -1 without a diagnostic")
            elif not _rk4_goes_unphysical(oracle, sup, cfg, times, constants):
                z = np.linalg.eigvals(sup) * cfg["dt"]
                amplification = float(np.max(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)))
                failures.append(f"{where}: -1 but RK4 at this step stays physical "
                                f"(amplification {amplification:.6g})")
            continue
        pops = capture.get((kappa, gamma))
        if diag or pops is None:
            failures.append(f"{where}: diagnostic {diag!r} or no trajectory on a finite point")
            continue
        if pops.shape != (times.size, oracle.dim):
            failures.append(f"{where}: populations of shape {pops.shape}")
            continue
        exact = oracles.superoperator_populations(oracle.h, mats, ke, ge, oracle.rho0, times, oracle.expm)
        rk4 = oracles.superoperator_populations(
            oracle.h, mats, ke, ge, oracle.rho0, times, oracle.rk4_propagator(substeps)
        )
        # The program may be as far from the exact solution as RK4 at this
        # step is, and no further.
        tol = float(np.max(np.abs(exact - rk4))) + ROUNDOFF
        err = float(np.max(np.abs(pops - exact)))
        if err > tol:
            failures.append(f"{where}: populations off the oracle by {err:.3g} > {tol:.3g}")
        elif not _mixing_consistent(t_mix, times, exact, oracle.sinks, tol, constants):
            failures.append(f"{where}: mixing time {t_mix:g} disagrees with the oracle populations")
    return failures


def check_classical(oracles, constants, cfg: dict, out_dir: str, capture: dict) -> list[str]:
    oracle = Oracle(oracles, cfg)
    delta = cfg["sample_every"]
    step = np.real(oracles.taylor_expm(oracle.rate_matrix() * delta))
    steps = int(math.ceil(cfg["t_max"] / delta - 1e-12))
    header, rows = read_csv(os.path.join(out_dir, "classical.csv"))
    want = ["t"] + [f"pattern_{format(v, f'0{oracle.n}b')}" for v in range(oracle.dim)]
    if header != want:
        return [f"classical.csv header {header[:3]}..."]
    if len(rows) != steps + 1:
        return [f"classical.csv has {len(rows)} rows, expected {steps + 1}"]
    p = np.real(np.diag(oracle.rho0)).copy()
    for k, row in enumerate(rows):
        values = np.array([float(c) for c in row])
        if abs(values[0] - k * delta) > 1e-9:
            return [f"row {k}: t = {values[0]!r}, expected {k * delta!r}"]
        err = float(np.max(np.abs(values[1:] - p)))
        if err > ROUNDOFF:
            return [f"row {k}: distribution off the step-by-step oracle by {err:.3g}"]
        p = step @ p
    return []


def check_simulate(oracles, constants, cfg: dict, out_dir: str, capture: dict) -> list[str]:
    # No oracle is affordable at n = 6: check the health invariants and
    # the retrieval outcome instead.
    n = cfg["n"]
    dim = 1 << n
    times = _sample_grid(cfg)
    header, rows = read_csv(os.path.join(out_dir, "simulate.csv"))
    want = ["t"] + [f"pattern_{format(v, f'0{n}b')}" for v in range(dim)] + [
        "trace_drift", "min_eig", "purity"]
    if header != want:
        return [f"simulate.csv header {header[:3]}..."]
    if len(rows) != times.size:
        return [f"simulate.csv has {len(rows)} rows, expected {times.size}"]
    data = np.array([[float(c) for c in row] for row in rows])
    pops = data[:, 1:1 + dim]
    failures = []
    if np.max(np.abs(data[:, 0] - times)) > 1e-9:
        failures.append("sample times off the sampling grid")
    if np.max(data[:, 1 + dim]) > constants.TRACE_TOL:
        failures.append(f"trace drift {np.max(data[:, 1 + dim]):.3g} > {constants.TRACE_TOL}")
    if np.min(data[:, 2 + dim]) < constants.EIGENVALUE_ABORT:
        failures.append(f"min eigenvalue {np.min(data[:, 2 + dim]):.3g} below the abort level")
    if np.min(pops) < 0 or np.max(np.abs(pops.sum(axis=1) - 1)) > ROUNDOFF:
        failures.append("populations are not a probability vector")
    if np.max(data[:, 3 + dim]) > 1 + ROUNDOFF or np.min(data[:, 3 + dim]) <= 0:
        failures.append("purity outside (0, 1]")
    near, far = _nearest_sink(cfg)
    if pops[-1, near] + pops[-1, far] < constants.SINK_THRESHOLD:
        failures.append(f"sinks absorb {pops[-1, near] + pops[-1, far]:.6g} < {constants.SINK_THRESHOLD}")
    if not pops[-1, near] > pops[-1, far]:
        failures.append(f"nearest sink holds {pops[-1, near]:.6g}, far sink {pops[-1, far]:.6g}")
    svg_path = os.path.join(out_dir, "simulate.svg")
    try:
        svg = ET.parse(svg_path).getroot()
        lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
        if len(lines) != dim:
            failures.append(f"simulate.svg has {len(lines)} series, expected {dim}")
    except (OSError, ET.ParseError) as exc:
        failures.append(f"simulate.svg unreadable: {exc}")
    return failures


CHECKS = {"sweep": check_sweep, "simulate": check_simulate, "classical": check_classical}
