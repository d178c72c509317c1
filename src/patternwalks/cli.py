"""Command-line front end.

Commands: simulate, sweep, coin-check, hopfield, classical. Exit codes:
0 success, 2 configuration error, 3 numerical-diagnostics error.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_hopfield, load_scenario, load_sweep
from .errors import ConfigurationError, IntegrationDiagnosticsError
from .experiments import (
    run_classical,
    run_coin_check,
    run_hopfield,
    run_simulate,
    run_sweep,
)

__all__ = ["build_parser", "main", "app"]


_FLAGS = {
    "--svg": dict(action="store_true", help="also write an SVG sketch"),
    "--seed": dict(type=int, help="override the config random seed"),
    "--dt": dict(type=float, help="override dt, the step budget of the integrator"),
}


def _add_config_command(subparsers, name: str, help: str, *flags: str) -> None:
    """A subcommand reading a config file, with ``--out`` and only ``flags``."""
    sub = subparsers.add_parser(name, help=help)
    sub.add_argument("config", help="path to a JSON config file")
    sub.add_argument("--out", help="output directory (default: config 'out' or '.')")
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternwalks",
        description=(
            "Quantum and classical walks on neural firing-pattern hypercubes "
            "with sink-based associative memory."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_command(sub, "simulate", "evolve one walk scenario", "--svg", "--dt")
    _add_config_command(sub, "sweep", "mixing time over a strength grid", "--svg", "--dt")
    coin = sub.add_parser("coin-check", help="coin unitarity report")
    coin.add_argument("--grid", help="comma-separated bias values in [0, 1]")
    coin.add_argument("--out", help="output directory (default '.')")
    _add_config_command(sub, "hopfield", "classical retrieval baseline", "--seed")
    _add_config_command(sub, "classical", "classical chain over the jump graph")
    return parser


def _parse_grid(text: str | None):
    if text is None:
        return None
    values = []
    for item in text.split(","):
        try:
            p = float(item)
        except ValueError as exc:
            raise ConfigurationError(f"--grid: {item!r} is not a number") from exc
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"--grid: {p} outside [0, 1]")
        values.append(p)
    return values


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:  # the command's own usage names it and the flags it takes
        (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        commands[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    # --dt and --seed replace the file's value before parsing, so the file's checks cover them.
    options = vars(args)
    overrides = {key: options[key] for key in ("dt", "seed") if options.get(key) is not None}
    try:
        if args.command == "simulate":
            cfg = load_scenario(args.config, overrides)
            paths = run_simulate(cfg, out_dir=args.out, svg=args.svg).paths
        elif args.command == "sweep":
            grid = load_sweep(args.config, overrides)
            paths = run_sweep(grid, out_dir=args.out, svg=args.svg).paths
        elif args.command == "coin-check":
            _, paths = run_coin_check(_parse_grid(args.grid), out_dir=args.out)
        elif args.command == "hopfield":
            cfg = load_hopfield(args.config, overrides)
            _, paths = run_hopfield(cfg, out_dir=args.out)
        else:  # classical
            paths = run_classical(load_scenario(args.config), out_dir=args.out).paths
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationDiagnosticsError as exc:
        print(f"integration diagnostics: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
