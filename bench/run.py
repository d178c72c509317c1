"""Benchmark of the patternwalks CLI: one seeded workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-n4 --seed 1 --seconds 20 --trace 0

The seed draws the scenario; the generated config files are the only
input the program receives. With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run plus the tracing overhead. The last line of standard output is the
result object; the line before it records the seed, the configs, the
environment and the per-repetition details. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
from workloads import WORKLOADS, WARM_T_MAX, cli_args, make_config, ops_per_run, write_config  # noqa: E402

SETUP_STARTS = 11
CHILD_TIMEOUT_S = 150

# Fresh interpreter: import the package and load the config, timed from
# the first statement.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
from patternwalks import cli
getattr(cli, sys.argv[2])(sys.argv[3])
print(repr(time.perf_counter() - t0))
"""


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def measure_setup(loader: str, config_path: str) -> list[float]:
    src = str(ROOT / "src")
    cmd = [sys.executable, "-c", SETUP_CODE, src, loader, config_path]
    subprocess.run(cmd, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)  # bytecode cache
    return [
        float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S).stdout)
        for _ in range(SETUP_STARTS)
    ]


def run_worker(work: Path, tag: str, workload, seconds: float, trace: bool) -> dict:
    out_dir = str(work / f"{tag}-out")
    job = {
        "root": str(ROOT),
        "args": cli_args(workload, str(work / "config.json"), out_dir),
        "warm_args": cli_args(workload, str(work / "warm.json"), out_dir),
        "seconds": seconds,
        "trace": trace,
        "out_dir": out_dir,
        "keep_dir": str(work / f"{tag}-checked"),
        "capture_path": str(work / f"{tag}-capture.npz"),
        "result_path": str(work / f"{tag}-result.json"),
        "spans_path": str(work / f"{tag}-spans.json"),
    }
    job_path = work / f"{tag}-job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)], check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    result = json.loads(Path(job["result_path"]).read_text(encoding="utf-8"))
    result["job"] = job
    return result


def load_capture(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    import numpy as np

    data = np.load(path)
    return {(float(k), float(g)): p for (k, g), p in zip(data["keys"], data["pops"])}


def check_outputs(workload, cfg: dict, reference: dict) -> tuple[int, list[str]]:
    """Failed operations and messages for the first repetition's outputs."""
    import checks

    rep = reference["reps"][0]
    ops = ops_per_run(workload, cfg)
    if rep["error"] or rep["rc"] != 0:
        return ops, [f"first repetition: exit {rep['rc']} {rep['error']}".strip()]
    oracles, constants = checks.load_references(str(ROOT))
    capture = load_capture(reference["job"]["capture_path"])
    try:
        messages = checks.CHECKS[workload.command](
            oracles, constants, cfg, reference["job"]["keep_dir"], capture)
    except (OSError, ValueError, IndexError) as exc:
        return ops, [f"outputs unreadable: {exc!r}"]
    return (min(ops, len(messages)) if workload.command == "sweep" else int(bool(messages))), messages


def count_failures(workers, reference_hashes, ops, checked_failed) -> tuple[int, int]:
    """(attempted, failed) over every timed repetition of every worker.

    A repetition whose outputs match the checked first one byte for byte
    inherits its verdict; any other repetition fails as a whole.
    """
    attempted = failed = 0
    for result in workers:
        for rep in result["reps"]:
            attempted += ops
            if rep["error"] or rep["rc"] != 0 or rep["outputs"] != reference_hashes:
                failed += ops
            else:
                failed += checked_failed
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test horizons")
    args = parser.parse_args(argv)

    for needed in ("src/patternwalks/cli.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return _fail(f"{needed} not found under {ROOT}; run from a checkout of the repository")

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(workload, args.seed, args.size)
    warm_cfg = make_config(workload, args.seed, args.size, WARM_T_MAX)
    cfg_path = write_config(str(work / "config.json"), cfg)
    write_config(str(work / "warm.json"), warm_cfg)

    loader = "load_sweep" if workload.command == "sweep" else "load_scenario"
    setup = [] if args.trace else measure_setup(loader, cfg_path)

    if args.trace:
        half = args.seconds / 2
        plain = run_worker(work, "plain", workload, half, False)
        traced = run_worker(work, "traced", workload, half, True)
        workers = [plain, traced]
    else:
        plain = run_worker(work, "plain", workload, args.seconds, False)
        workers = [plain]

    ops = ops_per_run(workload, cfg)
    checked_failed, messages = check_outputs(workload, cfg, plain)
    attempted, failed = count_failures(workers, plain["reps"][0]["outputs"], ops, checked_failed)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    plain_wall = statistics.median(r["wall_s"] for r in plain["reps"])
    if args.trace:
        per_rep = traced["rep_metrics"]
        traced_wall = statistics.median(r["wall_s"] for r in traced["reps"])
        # Counts are exact: take one repetition's value rather than an average.
        values = {name: (statistics.median_low if units[name] in ("count", "B") else statistics.median)(
            [m[name] for m in per_rep]) for name in per_rep[0]}
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - plain_wall
    else:
        values = {
            "cpu_s": statistics.median(r["cpu_s"] for r in plain["reps"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in
               (m["name"] for m in spec["per_layer" if args.trace else "end_to_end"])}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "config": cfg,
        "warm_config": warm_cfg,
        "env": envinfo.collect(ROOT),
        "setup_s": setup,
        "wall_s": plain_wall,
        "reps": [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "rc": r["rc"], "bytes": r["bytes"]}
                 for w in workers for r in w["reps"]],
        "check_messages": messages,
        "missing_wraps": traced.get("missing_wraps", []) if args.trace else [],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
