"""The walk's schedule: one table of rows, each with what it pins.

This table is the only place that pins a Taylor degree, a block size, a
round count or a stage count. A schedule change (a new block rule,
degree table or budget) edits its rows, not the tests. The rows come in
three layers, and each row's ``schedule(monkeypatch)`` must equal its
``pinned``:

- ``Degree``: ``numerics.taylor_degree(norm, budget)``, and
  ``Substeps``: ``numerics.taylor_substeps(norm)``;
- ``Block``: ``lindblad._block(x, steps_per_sample)``;
- ``Walk``: one ``evolve_batch`` config and the ``(k, p, m)`` of each of
  its distinct strength pairs, its rounds and its ``_stage`` calls, read
  through the table's one spy. Its run must also have the bits of the
  per-call reference round (``reference_step``).

``tests/test_lindblad.py`` (``TestSchedule``) checks every row, and that
each walk's batch has the bits of its points' lone runs.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

import reference_step
from patternwalks import lindblad
from patternwalks.constants import (
    DEFAULT_DT,
    DEFAULT_SAMPLE_EVERY,
    HEALTH_CHUNK_BYTES,
    MAX_BLOCK_STRIDES,
    SAMPLE_PRODUCT_MADDS,
)
from patternwalks.errors import IntegrationDiagnosticsError
from patternwalks.hypercube import build_hamiltonian, build_jump_operators, jump_gain, make_spec
from patternwalks.lindblad import WalkParams, density_from_pattern, evolve, evolve_batch, sample_grid, validate_density
from patternwalks.numerics import taylor_degree, taylor_substeps

# The arrays of a Trajectory, which a run's outcome must reproduce bit for bit.
FIELDS = ("times", "populations", "trace_drift", "min_eigenvalue", "purity", "hermiticity")


def lone(rho0, spec, params):
    """``evolve``'s trajectory, or the diagnostics error it raised."""
    try:
        return evolve(rho0, spec, params)
    except IntegrationDiagnosticsError as err:
        return err


def assert_same(outcome, expected):
    """``outcome`` is ``expected``'s error, with its text, or has its trajectory's arrays as leading rows, bit for bit."""
    if isinstance(expected, IntegrationDiagnosticsError):
        assert isinstance(outcome, IntegrationDiagnosticsError) and str(outcome) == str(expected)
        return
    for name in FIELDS:
        want = getattr(expected, name)
        assert np.array_equal(getattr(outcome, name)[: len(want)], want), name


class Degree(NamedTuple):
    """``taylor_degree(norm, budget)``: the smallest tabled degree below the budget, else 0."""

    norm: float
    budget: int
    pinned: int

    @property
    def id(self):
        return f"degree-{self.norm}-{self.budget}"

    def schedule(self, monkeypatch):
        return taylor_degree(self.norm, self.budget)


class Substeps(NamedTuple):
    """``taylor_substeps(norm)``: the ``(p, m)`` of p equal sub-steps at degree m with the fewest stages, else (0, 0)."""

    norm: float
    pinned: tuple

    @property
    def id(self):
        return f"substeps-{self.norm}"

    def schedule(self, monkeypatch):
        return taylor_substeps(self.norm)


class Block(NamedTuple):
    """``_block(x, steps)``, x the norm bound times a stride of ``steps`` steps of dt: ``(k, p, m)``, k = 0 for a failure."""

    x: float
    steps: int
    pinned: tuple

    @property
    def id(self):
        return f"block-{self.x}-{self.steps}"

    def schedule(self, monkeypatch):
        return lindblad._block(self.x, self.steps)


def spied(monkeypatch, chunk_bytes):
    """The table's one spy: ``(rounds, checked)``, filled from here on.

    Each ``lindblad.rk4_step`` call, one round, appends ``(its _stage
    calls, the pairs of its first stage, its state dtype)`` to ``rounds``
    and asserts that each column chunk of its sample products is at most
    SAMPLE_PRODUCT_MADDS multiply-adds. Each health check appends its
    stack size to ``checked``; its chunks are capped at ``chunk_bytes``.
    """
    step, health, rounds, checked = lindblad.rk4_step, lindblad._health, [], []

    def recorded(operands):
        stages, products, _ = operands
        assert all(weights.size * series.shape[1] <= SAMPLE_PRODUCT_MADDS for weights, series, _ in products)
        rounds.append((len(stages), len(stages[0][1]), stages[0][1].dtype))
        step(operands)

    def seen(m, *rest):
        checked.append(len(m))
        return health(m, *rest)

    monkeypatch.setattr(lindblad, "rk4_step", recorded)
    monkeypatch.setattr(lindblad, "_health", seen)
    monkeypatch.setattr(lindblad, "HEALTH_CHUNK_BYTES", chunk_bytes)
    return rounds, checked


class Walk(NamedTuple):
    """``evolve_batch`` of one run per ``(kappa, gamma)`` of ``points``, and what it pins.

    The walk is ``make_spec(n, sinks, overrides)`` from ``start``, a
    pattern or "mixed" for the maximally mixed state. ``pinned`` is the
    ``(k, p, m)`` of each distinct strength pair, in ``evolve_batch``'s
    order and with k = 0 for a pair that fails before its first step,
    then the rounds (``rk4_step`` calls) and the ``_stage`` calls. The health check takes at most
    ``chunk_bytes`` of states at a time.
    """

    id: str
    n: int
    sinks: tuple
    start: str
    points: tuple
    t_max: float
    pinned: tuple
    dt: float = DEFAULT_DT
    sample_every: float = DEFAULT_SAMPLE_EVERY
    overrides: tuple = ()
    chunk_bytes: int = HEALTH_CHUNK_BYTES

    def spec(self):
        return make_spec(self.n, list(self.sinks), list(self.overrides))

    def rho0(self):
        dim = 1 << self.n
        return np.eye(dim) / dim if self.start == "mixed" else density_from_pattern(self.start, self.n)

    def params(self, t_max):
        return [
            WalkParams(kappa=kappa, gamma=gamma, t_max=t_max, dt=self.dt, sample_every=self.sample_every)
            for kappa, gamma in self.points
        ]

    def schedule(self, monkeypatch):
        """``((k, p, m) per pair, rounds, _stage calls)``, each from ``_block`` as ``evolve_batch`` computes it.

        The counts come through the spy. The rounds must step the framed
        state's dtype, the largest must take each distinct pair of the
        largest stack (one per p) once, and no health check may take more
        than ``chunk_bytes`` of states. The run must have the bits of one on the per-call
        reference round, with the default chunks, as far as two periods
        past its last failure: by then every failure has ended its pass,
        and each pass binds all of its rounds before its first period.
        """
        spec, rho0, params = self.spec(), self.rho0(), self.params(self.t_max)
        steps, _ = sample_grid(self.dt, self.sample_every, self.t_max)
        # The distinct pairs in 1/gamma units, and their generator record.
        pairs = list(dict.fromkeys((p.kappa / p.gamma, 1.0) if p.gamma > 0 else (p.kappa, 0.0) for p in params))
        gain, out_degree = jump_gain(build_jump_operators(spec), spec.dim)
        gen = lindblad._generator(build_hamiltonian(spec), gain, out_degree, spec.sinks, pairs)
        blocks = [lindblad._block(x * (steps * self.dt), steps) for x in gen.bound().tolist()]
        rounds, checked = spied(monkeypatch, self.chunk_bytes)
        outcomes = evolve_batch(rho0, spec, params)
        state = gen.frame(validate_density(rho0, spec.sinks))
        stacks = Counter(p for k, p, _ in blocks if k)
        assert {dtype for _, _, dtype in rounds} == {state.dtype}
        assert max((size for _, size, _ in rounds), default=0) == max(stacks.values(), default=0)
        assert max(checked, default=0) <= max(1, self.chunk_bytes // state.nbytes)
        monkeypatch.undo()
        monkeypatch.setattr(lindblad, "_round", lambda *operands: operands)
        monkeypatch.setattr(lindblad, "rk4_step", lambda operands: reference_step.rk4_step(*operands))
        last_failure = max((o.t for o in outcomes if isinstance(o, IntegrationDiagnosticsError)), default=0.0)
        horizon = min(self.t_max, last_failure + 2 * MAX_BLOCK_STRIDES * steps * self.dt)
        for outcome, expected in zip(outcomes, evolve_batch(rho0, spec, self.params(horizon)), strict=True):
            assert_same(outcome, expected)
        return blocks, len(rounds), sum(stages for stages, _, _ in rounds)


# From the maximally mixed state at one step of dt per sample (a budget of
# 4 stages per stride, 12 for sub-steps), kappa/gamma = 1 000, 80, 150 and
# 100 fail before their first step, in front of 1 on exact blocks; the
# health check takes two states at a time.
DROPS = Walk(
    "drops", 4, ("0110", "1111"), "mixed", tuple((kappa, 1.0) for kappa in (1000.0, 80.0, 150.0, 100.0, 1.0)),
    0.1, ([(0, 4, 55), (0, 1, 28), (0, 1, 40), (0, 1, 35), (8, 1, 14)], 3, 42), sample_every=0.005,
    chunk_bytes=2 * 16 * 16 * 8,
)

WALKS = [
    # The benchmark's seed-1 sweep, the offline twin of CI's traced
    # rk4_step_calls == 60: 15 periods of eight strides, each four rounds set
    # by the blocks of two. The kappa = 150 points fail before their first
    # step: their cheapest sub-steps need 165-1 540 stages per stride, more
    # than three times dt's 40. Five points share kappa/gamma = 1.
    Walk(
        "sweep-n4", 4, ("1000", "0010"), "0111",
        tuple((kappa, gamma) for gamma in (0.2, 0.65, 1.1, 1.55, 2.0) for kappa in (0.2, 0.65, 1.1, 1.55, 2.0, 150.0)),
        6.0, ([
            (8, 1, 35), (4, 1, 40), (4, 1, 50), (2, 1, 40), (2, 1, 50), (0, 28, 55), (8, 1, 27), (8, 1, 45),
            (8, 1, 50), (4, 1, 40), (0, 9, 55), (8, 1, 27), (8, 1, 29), (8, 1, 40), (8, 1, 45), (0, 5, 55),
            (8, 1, 27), (8, 1, 28), (8, 1, 30), (8, 1, 40), (0, 4, 55), (8, 1, 27), (8, 1, 28), (8, 1, 29),
            (8, 1, 35), (0, 3, 55),
        ], 60, 3000),
    ),
    # The benchmark's seed-1 simulate, the twin of CI's rk4_step_calls == 50:
    # one round per eight samples, whose 4 096-column sample products split.
    Walk("simulate-n6", 6, ("110111", "000111"), "000000", ((1.0, 1.0),), 20.0, ([(8, 1, 45)], 50, 2250)),
    # Every block size, three sub-step stacks and a failure, at 20 steps of
    # dt per stride (a budget of 80 stages, 240 for sub-steps): a period of
    # eight strides is eight rounds, set by the block of one (16), and the
    # horizon cuts the third.
    # kappa/gamma = 12 fits two strides only on its 2-norm bound; 30 and 40
    # take two sub-steps per stride, 60 three, and 150 would need 330 stages.
    Walk(
        "mixed-blocks", 4, ("0110", "1111"), "0000",
        tuple((kappa, 1.0) for kappa in (0.5, 12.0, 150.0, 4.0, 16.0, 30.0, 40.0, 60.0)),
        1.0, ([(8, 1, 29), (2, 1, 55), (0, 6, 55), (4, 1, 45), (1, 1, 40), (1, 2, 40), (1, 2, 50), (1, 3, 45)],
              124, 5840), dt=0.0025,
    ),
    # kappa/gamma = 20 needs degree 40 for one stride, the whole of dt's
    # budget of 40, so it takes one-stride blocks on the sub-step budget,
    # beside 17, which fits two strides only on its 2-norm bound.
    Walk(
        "fallback", 4, ("1011", "1111"), "0000", tuple((kappa, 1.0) for kappa in (20.0, 17.0, 1.0)),
        1.0, ([(1, 1, 40), (2, 1, 55), (8, 1, 29)], 24, 1140),
    ),
    DROPS,
    # n = 6 in its two exact limits, to a horizon that cuts the second period.
    Walk("n6-limits", 6, ("011010", "110111"), "100001", ((1.0, 0.0), (0.0, 1.0)), 0.5,
         ([(8, 1, 35), (8, 1, 35)], 2, 70)),
    # Unequal non-sink self-loops make R complex: 8 192 float64 columns at
    # n = 6, and 2 048 at n = 5, where the walk runs the (4 x 41) sample
    # product of its k = 4 pair whole and the reference splits it in two;
    # n = 5 cuts its second period.
    Walk(
        "n6-complex", 6, ("011010", "110111"), "100001", ((1.0, 1.0), (0.0, 1.0)), 0.4,
        ([(8, 1, 50), (8, 1, 35)], 1, 50), overrides=(("000000", "000000", 2.0), ("010000", "010000", 0.5)),
    ),
    Walk(
        "n5-complex", 5, ("01101", "11111"), "00000",
        tuple((kappa, 1.0) for kappa in (0.4, 0.3, 0.9, 0.2, 0.6, 1.1, 1.7, 2.3)),
        0.7, ([(8, 1, 35), (8, 1, 30), (8, 1, 40), (8, 1, 30), (8, 1, 35), (8, 1, 45), (8, 1, 55), (4, 1, 40)], 4, 190),
        overrides=(("00000", "00000", 2.0), ("01000", "01000", 0.5)),
    ),
]

SCHEDULE = [
    *(Degree(norm, budget, degree) for norm, budget, degree in [
        (0.0, 40, 1), (1.2, 40, 19), (1.26, 40, 19), (1.27, 40, 20), (4.4, 40, 35),
        (4.8, 40, 0), (4.4, 36, 35), (4.4, 35, 0), (9.9, 56, 55), (10.0, 10**6, 0),
    ]),
    # A norm with no tabled degree below the budget takes the sub-steps with
    # the fewest stages: 4.8 and 4.4 one step at degree 40 and 35, 10.0 (beyond
    # the table) two of degree 40, 14.238 (the retrieval demo at kappa/gamma =
    # 100) two of degree 45; a norm that is not finite has none.
    *(Substeps(norm, substeps) for norm, substeps in [
        (0.0, (1, 1)), (4.8, (1, 40)), (4.4, (1, 35)), (10.0, (2, 40)), (14.238, (2, 45)),
        (float("inf"), (0, 0)), (float("nan"), (0, 0)),
    ]),
    # n = 6 at kappa = gamma = 1 takes 8 strides at degree 55 on its 1-norm
    # bound (1.2) and at degree 45 on its 2-norm bound (0.82). At one step
    # of dt per stride, 8 x 0.44 needs degree 30, below the budget of 32
    # stages, but 8 x 0.45 needs 35, and 4, 2 or 1 strides need more than
    # their 16, 8 or 4; the cheapest sub-steps, one of degree 14, exceed 3 x
    # 4 = 12, so the pair fails (k = 0), as do 30.0 (four sub-steps of degree
    # 50, 200 of 120 stages) and an infinite bound. 4 x 2.5 is beyond the
    # table, but 2 x 2.5 needs 40 of 80; 6.0 needs 40, below 80 at 20 steps
    # per stride, and at 10 it takes one sub-step of degree 40 within 120.
    # 10.0 at 10^6 steps takes two sub-steps of degree 40. 8 x 2.0 is beyond
    # the table too, but 4 x 2.0 needs 50 of 160.
    *(Block(x, steps, block) for x, steps, block in [
        (1.2, 10, (8, 1, 55)), (0.82, 10, (8, 1, 45)), (0.0, 10, (8, 1, 1)), (0.44, 1, (8, 1, 30)),
        (0.45, 1, (0, 1, 14)), (2.5, 10, (2, 1, 40)), (6.0, 20, (1, 1, 40)), (6.0, 10, (1, 1, 40)),
        (10.0, 10**6, (1, 2, 40)), (2.0, 10, (4, 1, 50)), (30.0, 10, (0, 4, 50)), (float("inf"), 10, (0, 0, 0)),
    ]),
    *WALKS,
]
