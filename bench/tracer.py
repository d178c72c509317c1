"""In-memory span tracer that wraps the package's functions from outside.

Each wrapped function is replaced at the place where its callers look it
up (e.g. ``patternwalks.lindblad.rk4_step``, the name ``evolve`` binds
to), so no file of the package changes. A span records its name, start,
end, parent and thread. The parent comes from a per-thread stack; a
thread with an empty stack (a pool worker) hangs its spans under the
span open in the thread that installed the tracer, so sweep points sit
under ``run_sweep``.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module attribute path, attribute, span name, counter on the result).
# Counters: "jumps" = operators built, "samples" = trajectory rows.
WRAP_SITES = (
    ("patternwalks.cli", "load_scenario", "config.load", None),
    ("patternwalks.cli", "load_sweep", "config.load", None),
    ("patternwalks.cli", "run_simulate", "experiments.run", None),
    ("patternwalks.cli", "run_sweep", "experiments.run", None),
    ("patternwalks.cli", "run_classical", "experiments.run", None),
    ("patternwalks.experiments", "evolve", "lindblad.evolve", "samples"),
    ("patternwalks.experiments", "mixing_time", "lindblad.mixing_time", None),
    ("patternwalks.experiments", "density_from_pattern", "lindblad.density", None),
    ("patternwalks.lindblad", "rk4_step", "numerics.rk4_step", None),
    ("patternwalks.markov", "expm", "numerics.expm", None),
    ("patternwalks.markov", "ctmc_evolve", "markov.ctmc_evolve", None),
    ("patternwalks.markov", "rate_matrix_from_jumps", "markov.rate_matrix", None),
    ("patternwalks.config", "make_spec", "hypercube.build", None),
    ("patternwalks.lindblad", "build_hamiltonian", "hypercube.build", None),
    ("patternwalks.lindblad", "build_jump_operators", "hypercube.build", "jumps"),
    ("patternwalks.experiments", "build_jump_operators", "hypercube.build", "jumps"),
    ("patternwalks.output", "write_trajectory_csv", "output.write", None),
    ("patternwalks.output", "write_classical_csv", "output.write", None),
    ("patternwalks.output", "write_sweep_csv", "output.write", None),
    ("patternwalks.output", "svg_line_plot", "output.svg", None),
    ("patternwalks.output", "svg_heatmap", "output.svg", None),
)

ROOT = "cli.main"
MODULES = ("config", "experiments", "lindblad", "numerics", "markov", "hypercube", "output")


def _count(kind, result) -> int:
    if kind == "jumps":
        return len(result)
    if kind == "samples":
        return int(result.times.size)
    return 0


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for none
    thread: int
    failed: bool
    count: int
    rep: int


class Tracer:
    """Records spans around wrapped functions; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep = -1
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self) -> tuple[int, int]:
        stack = self._stack()
        top = stack or self._main_stack
        parent = top[-1] if top else -1
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _end(self, sid, parent, name, start, failed, count) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            Span(sid, name, start, end, parent, threading.get_ident(), failed, count, self.rep)
        )

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            sid, parent = self._begin()
            failed, count = True, 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                if counter is not None:
                    count = _count(counter, result)
                return result
            finally:
                self._end(sid, parent, name, start, failed, count)

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def install(self) -> None:
        import importlib

        for mod_name, attr, name, counter in WRAP_SITES:
            self.wrap(importlib.import_module(mod_name), attr, name, counter)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around ``cli.main``."""
        sid, parent = self._begin()
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            self._end(sid, parent, name, start, failed, 0)


def apportioned_self(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of each span.

    Every instant is split evenly among the spans running then that have
    no running child, so self times add up to the wall time the spans
    cover even when pool threads overlap. Without overlap this is the
    usual duration minus child durations.
    """
    parent = {s.id: s.parent for s in spans}
    events = sorted(
        [(s.start, 1, s.id) for s in spans] + [(s.end, 0, s.id) for s in spans]
    )
    active: set[int] = set()
    children = defaultdict(int)
    leaves: set[int] = set()
    out = defaultdict(float)
    last = None
    for t, is_start, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                children[p] -= 1
                if children[p] == 0:
                    leaves.add(p)
    return out


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def rep_metrics(spans: list[Span], wall_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition of a command."""
    selfs = apportioned_self(spans)
    by_name = defaultdict(list)
    self_by_name = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        self_by_name[s.name] += selfs.get(s.id, 0.0)

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def median_us(name):
        durations = [s.end - s.start for s in by_name[name]]
        return 1e6 * statistics.median(durations) if durations else 0.0

    run_ids = {s.id for s in by_name["experiments.run"]}
    work = [s for s in by_name["lindblad.evolve"] + by_name["markov.ctmc_evolve"] if s.parent in run_ids]
    union = _union_length([(s.start, s.end) for s in work])
    points = by_name["lindblad.evolve"]
    module_self = defaultdict(float)
    for name, value in self_by_name.items():
        module_self[name.split(".")[0]] += value

    return {
        "config.load_s": total("config.load"),
        "experiments.run_s": total("experiments.run"),
        "experiments.self_s": self_by_name["experiments.run"],
        "experiments.overlap": sum(s.end - s.start for s in work) / union if union > 0 else 0.0,
        "experiments.points": len(points),
        "experiments.points_failed": sum(s.failed for s in points),
        "lindblad.evolve_calls": len(points),
        "lindblad.evolve_s": total("lindblad.evolve"),
        "lindblad.evolve_self_s": self_by_name["lindblad.evolve"],
        "lindblad.samples": sum(s.count for s in points),
        "lindblad.mixing_time_s": total("lindblad.mixing_time"),
        "numerics.rk4_step_calls": len(by_name["numerics.rk4_step"]),
        "numerics.rk4_step_us": median_us("numerics.rk4_step"),
        "numerics.rk4_step_s": total("numerics.rk4_step"),
        "numerics.expm_calls": len(by_name["numerics.expm"]),
        "numerics.expm_us": median_us("numerics.expm"),
        "numerics.expm_s": total("numerics.expm"),
        "markov.ctmc_evolve_calls": len(by_name["markov.ctmc_evolve"]),
        "markov.ctmc_evolve_self_s": self_by_name["markov.ctmc_evolve"],
        "hypercube.build_calls": len(by_name["hypercube.build"]),
        "hypercube.build_s": total("hypercube.build"),
        "hypercube.jumps": sum(s.count for s in by_name["hypercube.build"]),
        "output.write_s": total("output.write"),
        "output.svg_s": total("output.svg"),
        "output.bytes": output_bytes,
        "trace.self_sum_ratio": sum(module_self[m] for m in MODULES) / wall_s,
    }
