"""Every check of the command-line contract: one table of rows, one runner.

A row is one command with its config and flags, and what the run must give.
``check`` writes the row's config to ``<root>/<row>/config.json``, so that
the row can be rerun by hand, runs it with ``--out <root>/<row>/a`` and
returns what went wrong:

- an exit code other than the row's;
- a stderr that does not start with the row's prefix, or that holds
  "Warning";
- an exit 2 that created its ``--out``, or an exit 3 that wrote a file;
- an exit 0 that wrote no file, or whose second run, into
  ``<root>/<row>/b``, wrote other bytes;
- a file whose line count is not the one the row pins;
- a file equal to the one the same command writes for the row's twin
  config, in ``<root>/<row>/twin``.

``tests/test_cli_checks.py`` runs every row through ``cli.main``. As a
script, the runner takes a root that does not exist yet and the command
that starts the program, and exits 1 if any row fails:

    python tests/cli_checks.py /tmp/checks patternwalks
    PYTHONPATH=src python tests/cli_checks.py /tmp/checks python -m patternwalks.cli

Run on two checkouts into two roots, ``diff -r`` of the roots then compares
every file that the exit-0 rows write.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class Check(NamedTuple):
    """One row. ``config`` is a mapping written as JSON, raw bytes, a demo
    path, or None for a command that reads no config. ``flags`` and
    ``stderr`` are format strings: ``{config}`` stands for the written
    config's path, and other braces are doubled."""

    name: str
    why: str
    command: str
    config: dict | bytes | Path | None = None
    flags: tuple = ()
    exit: int = 0
    stderr: str = ""
    lines: dict = {}
    twin: dict | None = None


N1 = {"n": 1, "sinks": ["1"], "initial": "0"}
N2 = {"n": 2, "sinks": ["11"], "initial": "00"}
N3 = {"n": 3, "sinks": ["101", "111"], "initial": "000"}
N3_WALK = N3 | {"kappa": 1.0, "gamma": 1.0, "t_max": 1.0}
N4_WALK = {"n": 4, "sinks": ["1011", "1111"], "initial": "0000", "gamma": 1.0, "t_max": 1.0}
N6_WALK = {"n": 6, "sinks": ["011010", "110111"], "initial": "100001", "kappa": 1.0, "gamma": 1.0, "t_max": 1.0}
HOPFIELD = {"n": 4, "stored": ["1010"], "inputs": ["1011"]}
SELF_LOOP = {"edge_weights": [["000000", "000000", 2.0]]}
LONG_INT = b'{"n": 1, "sinks": ["1"], "initial": "0", "kappa": 1' + b"0" * 5000 + b"}"
NOT_JSON = "config error: config file {config!r} is not valid JSON"
OVERFLOW = (
    "integration diagnostics: no exact schedule within the budget: a sample stride needs 1.11111e+200 Taylor"
    " stages but dt = 0.005 allows 120; rerun with a smaller dt\n"
)
RATIO = "kappa/gamma: the ratio 1e+300/1e-300 is beyond the float range\n"

CHECKS = [
    *(
        Check(f"{demo}-{command}", "the shipped demo runs", command, CONFIGS / f"{demo}_demo.json")
        for demo in ("retrieval", "equidistant") for command in ("simulate", "classical")
    ),
    Check("sweep-demo", "the batched sweep demo writes its grid and heat map", "sweep",
          CONFIGS / "sweep_demo.json", ("--svg",), lines={"sweep.csv": 26, "sweep.svg": 66}),
    Check("hopfield-demo", "the Hopfield demo writes one row per input", "hopfield",
          CONFIGS / "hopfield_demo.json", lines={"hopfield.csv": 5}),
    Check("coin-check", "the default grid writes two rows per bias", "coin-check", lines={"coin_check.csv": 43}),
    Check("coin-check-grid", "--grid sets the biases", "coin-check", flags=("--grid", "0.25,0.5"),
          lines={"coin_check.csv": 5}),
    Check("grid-empty", "an empty --grid is a config error", "coin-check", flags=("--grid", ""),
          exit=2, stderr="config error: --grid: '' is not a number\n"),
    Check("grid-not-a-number", "a --grid item that is no number is a config error", "coin-check",
          flags=("--grid", "0.5,zebra"), exit=2, stderr="config error: --grid: 'zebra' is not a number\n"),
    Check("bad-n", "an n beyond 6 is a config error", "simulate", {"n": 9},
          exit=2, stderr="config error: n: expected an integer in 1..6, got 9\n"),
    Check("out-is-a-file", "an --out that names a file exits 2", "simulate", CONFIGS / "retrieval_demo.json",
          ("--out", "{config}"), exit=2, stderr="config error: out: cannot create output directory {config!r}"),
    Check("short-horizon", "a horizon shorter than one sample stride still writes one interval and a plot",
          "simulate", N1 | {"kappa": 0.0, "gamma": 1.0, "t_max": 1e-14}, ("--svg",),
          lines={"simulate.csv": 3, "simulate.svg": 29}),
    Check("n6-simulate", "an n = 6 walk writes its header and 21 samples", "simulate", N6_WALK, ("--svg",),
          lines={"simulate.csv": 22, "simulate.svg": 87}),
    Check("n6-classical", "the n = 6 chain populates only the patterns that jumps reach", "classical", N6_WALK,
          lines={"classical.csv": 22}),
    Check("n3-classical-cut-block", "37 steps of the n = 3 chain end in a block cut short of the width 8",
          "classical", N3 | {"t_max": 1.85, "sample_every": 0.05}, lines={"classical.csv": 39}),
    Check("n6-self-loop", "a self-loop steps a complex state where the health pass gathers 62x62 blocks",
          "simulate", N6_WALK | SELF_LOOP, lines={"simulate.csv": 22}),
    Check("n3-self-loop", "a self-loop steps a complex state at n = 3", "simulate",
          N3_WALK | {"edge_weights": [["000", "000", 2.0]]}, lines={"simulate.csv": 22}),
    Check("sub-step-budget", "at kappa/gamma = 20 no block fits below dt's budget; one stride at degree 40 fits"
          " the sub-step budget", "simulate", N4_WALK | {"kappa": 20.0}, lines={"simulate.csv": 22}),
    Check("two-stride-blocks", "at kappa/gamma = 17 the 2-norm bound takes blocks of two strides at degree 55",
          "simulate", N4_WALK | {"kappa": 17.0}, lines={"simulate.csv": 22}),
    *(
        Check(f"{kind}-{command}", "an unreadable config file exits 2 before its --out", command, text,
              exit=2, stderr=NOT_JSON)
        for kind, text in (("long-int", LONG_INT), ("not-utf-8", b"\xff\xfe{}"))
        for command in ("simulate", "classical", "sweep", "hopfield")
    ),
    Check("repeated-pair", "an edge weight pair given twice is a config error", "simulate",
          N3 | {"edge_weights": [["000", "001", 2.0], ["001", "000", 3.0]]},
          exit=2, stderr="config error: edge_weights: the pair '000', '001' is given twice\n"),
    Check("stride-cap", "one rounded stride of 10^8 steps names dt", "simulate",
          N1 | {"dt": 0.01, "sample_every": 1e6, "t_max": 0.02},
          exit=2, stderr="config error: dt: 0.01 asks for more than 10000000 steps per sample\n"),
    Check("step-cap", "1e12 steps of 1e-12 name dt", "simulate", N1 | {"t_max": 1.0, "dt": 1e-12},
          exit=2, stderr="config error: dt: 1e-12 asks for more than 10000000 steps per sample\n"),
    Check("sample-cap", "a finite horizon beyond the sample cap names t_max", "simulate", N2 | {"t_max": 1e300},
          exit=2, stderr="config error: t_max: 1e+300 asks for more than 100000 samples of stride 0.05\n"),
    *(
        Check(f"horizon-{command}", "a horizon whose sample count overflows names t_max", command,
              N3 | {"t_max": 1e308} | grid, exit=2,
              stderr="config error: t_max: 1e+308 asks for more than 100000 samples of stride 0.05\n")
        for command, grid in (
            ("simulate", {}), ("classical", {}), ("sweep", {"kappa_values": [1.0], "gamma_values": [1.0]})
        )
    ),
    Check("zero-point", "a sweep grid holding (0, 0) is a config error", "sweep",
          N1 | {"kappa_values": [0.0, 1.0], "gamma_values": [0.0, 1.0]}, exit=2,
          stderr="config error: kappa_values/gamma_values: point (0, 0): kappa/gamma: may not both be zero\n"),
    *(
        Check(f"ratio-{command}", "finite strengths whose ratio overflows are a config error", command,
              N2 | {"t_max": 1.0} | strengths, exit=2, stderr=prefix + RATIO)
        for command, strengths, prefix in (
            ("simulate", {"kappa": 1e300, "gamma": 1e-300}, "config error: "),
            ("classical", {"kappa": 1e300, "gamma": 1e-300}, "config error: "),
            ("sweep", {"kappa_values": [1.0, 1e300], "gamma_values": [1e-300]},
             "config error: kappa_values/gamma_values: point (1e+300, 1e-300): "),
        )
    ),
    Check("unknown-key", "a misspelt key is named", "simulate", N1 | {"kapa": 5.0},
          exit=2, stderr="config error: kapa"),
    Check("hopfield-key", "a Hopfield key on a walk is named", "classical", N1 | {"stored": ["1"]},
          exit=2, stderr="config error: stored"),
    Check("sweep-kappa", "a single kappa on a sweep is named", "sweep",
          N1 | {"kappa": 7.0, "kappa_values": [1.0], "gamma_values": [1.0]}, exit=2, stderr="config error: kappa"),
    Check("hopfield-dt", "a walk key on a Hopfield run is named", "hopfield", HOPFIELD | {"dt": 0.005},
          exit=2, stderr="config error: dt"),
    Check("hopfield-seed-flag", "a --seed beyond 64 bits is named", "hopfield", HOPFIELD,
          ("--seed", "18446744073709551616"), exit=2, stderr="config error: seed"),
    Check("dt-flag", "a --dt above the largest step, 0.01, is a config error", "simulate", N1, ("--dt", "0.5"),
          exit=2, stderr="config error: dt must lie in (0, 0.01]\n"),
    # the rest of a usage message is argparse's wording, not this program's
    *(
        Check(f"usage-{command}", "a flag the command does not read is a usage error", command, config, flags,
              exit=2, stderr=f"usage: patternwalks {command} ")
        for command, config, flags in (
            ("classical", N1, ("--svg",)), ("simulate", N1, ("--seed", "1")), ("hopfield", HOPFIELD, ("--dt", "0.001"))
        )
    ),
    Check("overflow", "a norm bound near the float range exits 3 before the first step, with no numpy warning"
          " and no CSV", "simulate",
          N2 | {"kappa": 1e200, "gamma": 1.0, "t_max": 1.0}, exit=3, stderr=OVERFLOW),
    Check("hopfield-random", "a seeded random order with the as-printed sense is reproducible", "hopfield",
          {"n": 4, "stored": ["1010"], "inputs": ["1010", "1011", "0010", "1110"], "order": "random",
           "threshold_sense": "as-printed", "seed": 5}, lines={"hopfield.csv": 5}),
    *(
        Check(f"lte-{command}", "the lte rule reaches the walk through the spec", command,
              N3_WALK | {"equidistant_rule": "lte"}, twin=N3_WALK if command == "simulate" else None)
        for command in ("simulate", "classical")
    ),
]


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _write(path: Path, config) -> str:
    if isinstance(config, dict):
        config = json.dumps(config).encode()
    elif isinstance(config, Path):
        config = config.read_bytes()
    path.write_bytes(config)
    return str(path)


def check(row: Check, root: Path, invoke) -> list:
    """Run ``row`` under ``root`` with ``invoke(argv) -> (exit code, stderr)``
    and return what went wrong; an empty list is a pass."""
    home = root / row.name
    home.mkdir(parents=True)
    config = None if row.config is None else _write(home / "config.json", row.config)
    args = [row.command] + ([config] if config else []) + [flag.format(config=config) for flag in row.flags]
    expected = row.stderr.format(config=config)
    problems = []

    def run(out: str) -> None:
        code, err = invoke(args if "--out" in row.flags else args + ["--out", str(home / out)])
        if code != row.exit:
            problems.append(f"{out}: exit {code}, expected {row.exit}")
        if not err.startswith(expected):
            problems.append(f"{out}: stderr {err!r} does not start with {expected!r}")
        if "Warning" in err:
            problems.append(f"{out}: stderr holds a warning: {err!r}")

    run("a")
    written = _files(home / "a")
    if row.exit == 2 and (home / "a").exists():
        problems.append("the exit 2 created its --out")
    if row.exit == 3 and written:
        problems.append(f"the exit 3 wrote {sorted(written)}")
    if row.exit == 0:
        run("b")
        again = _files(home / "b")
        if not written:
            problems.append("the exit 0 wrote no file")
        if written != again:
            changed = sorted(name for name in written.keys() | again.keys() if written.get(name) != again.get(name))
            problems.append(f"two runs wrote different bytes: {changed}")
    for name, count in row.lines.items():
        found = written[name].count(b"\n") if name in written else None
        if found != count:
            problems.append(f"{name}: {found} lines, expected {count}")
    if row.twin is not None:
        twin = _write(home / "twin.json", row.twin)
        code, _ = invoke([row.command, twin, *row.flags, "--out", str(home / "twin")])
        twins = _files(home / "twin")
        same = sorted(name for name, data in written.items() if twins.get(name, data) == data)
        if code != 0 or same:
            problems.append(f"the twin exits {code}; files it writes the same or not at all: {same}")
    return problems


def subprocess_invoke(*program: str):
    """An ``invoke`` that runs ``program`` with the row's arguments."""

    def invoke(argv):
        proc = subprocess.run([*program, *argv], capture_output=True, text=True, timeout=600)
        return proc.returncode, proc.stderr

    return invoke


def main(argv: list) -> int:
    if len(argv) < 2:
        print("usage: python tests/cli_checks.py ROOT PROGRAM [ARG ...]", file=sys.stderr)
        return 2
    root, invoke = Path(argv[0]), subprocess_invoke(*argv[1:])
    failed = 0
    for row in CHECKS:
        problems = check(row, root, invoke)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {row.name}: {row.why}")
        for problem in problems:
            print(f"     {problem}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
