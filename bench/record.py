"""Run the benchmark over several seeds and record a BENCH_<label>.json file.

Usage (from the repository root):

    python3 bench/record.py --label baseline --seeds 1-10 [--workloads sweep-n4,...]
                            [--trace 0|1] [--seconds 20]

For every workload and seed it runs ``bench/run.py`` once, then reports
for each metric the median, the quartiles (``statistics.quantiles`` with
n = 4) and the spread (quartile distance over median). The file lands in
``bench/`` beside this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    out = {"label": args.label, "trace": args.trace, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                                   text=True).stdout.splitlines()
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, "env": record["env"],
                         "wall_s": record["wall_s"], "check_messages": record["check_messages"]})
            shown = result["metrics"] if not args.trace else {}
            print(name, seed, *(f"{k}={v['value']:.6g} {v['unit']}" for k, v in shown.items()),
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        metrics = runs[0]["result"]["metrics"]
        out["workloads"][name] = {
            "env": runs[0]["env"],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {
                m: {"unit": metrics[m]["unit"],
                    **summarize([r["result"]["metrics"][m]["value"] for r in runs])}
                for m in metrics
            },
            "wall_s": summarize([r["wall_s"] for r in runs]),
            "seeds": [r["seed"] for r in runs],
            "check_messages": [m for r in runs for m in r["check_messages"]],
        }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, w in out["workloads"].items():
        for m, s in [*w["metrics"].items(), ("(wall_s)", w["wall_s"])]:
            if s["spread"] is not None and not args.trace:
                print(f"{name:14s} {m:12s} median {s['median']:.6g} spread {s['spread']:.4f}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
