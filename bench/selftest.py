"""Self-tests of the benchmark itself (not collected by pytest).

Usage (from the repository root): python3 bench/selftest.py

1. Smoke: every workload at the tiny size, traced and untraced; the
   last line must be the result object with every metric of
   BENCHMARK.json, each with its unit.
2. Corruption: every workload at the measured size for one repetition;
   the checks must pass on the real outputs and count one corrupted
   output (a CSV population, a mixing time, a diagnostic, a sampled
   population) as a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


def bench(workload: str, size: str, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(lines[-1])


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(name, "tiny", trace, 1)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(want) ^ set(got))
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)), metric
            print(f"smoke {name} trace={trace}: {len(got)} metrics with units")


def _rewrite_csv(path: Path, edit) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")


def _failed(workload, cfg, keep_dir: Path, capture: Path) -> int:
    reference = {"reps": [{"rc": 0, "error": ""}],
                 "job": {"keep_dir": str(keep_dir), "capture_path": str(capture)}}
    failed, messages = run.check_outputs(workload, cfg, reference)
    for message in messages:
        print("    ", message)
    return failed


def corruption() -> None:
    import numpy as np

    for name, workload in WORKLOADS.items():
        result = bench(name, "full", 0, 0)
        assert result["correct"] and result["failed"] == 0, (name, result)
        cfg = make_config(workload, 3)
        work = ROOT / ".bench_work" / name
        keep, capture = work / "plain-checked", work / "plain-capture.npz"
        assert _failed(workload, cfg, keep, capture) == 0

        cases = []
        if workload.command == "sweep":
            def bump_mixing(rows):
                row = next(r for r in rows[1:] if r[2] not in ("-1",))
                row[2] = str(float(row[2]) + 0.5)

            def drop_diagnostic(rows):
                next(r for r in rows[1:] if r[2] == "-1")[3] = ""

            cases += [("sweep.csv", bump_mixing), ("sweep.csv", drop_diagnostic)]
        elif workload.command == "simulate":
            def swap_sinks(rows):
                header = rows[0]
                a, b = (header.index(f"pattern_{s}") for s in cfg["sinks"])
                rows[-1][a], rows[-1][b] = rows[-1][b], rows[-1][a]

            cases.append(("simulate.csv", swap_sinks))
        else:
            def nudge(rows):
                rows[len(rows) // 2][1] = repr(float(rows[len(rows) // 2][1]) + 1e-6)

            cases.append(("classical.csv", nudge))

        for filename, edit in cases:
            bad = work / "corrupt"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(keep, bad)
            _rewrite_csv(bad / filename, edit)
            failed = _failed(workload, cfg, bad, capture)
            assert failed == 1, (name, edit.__name__, failed)
            print(f"corrupt {name} {edit.__name__}: counted as {failed} failed operation")

        if workload.command == "sweep":
            data = dict(np.load(capture))
            data["pops"][0, -1, :2] += [1e-3, -1e-3]
            bad_capture = work / "corrupt-capture.npz"
            np.savez(bad_capture, **data)
            failed = _failed(workload, cfg, keep, bad_capture)
            assert failed == 1, failed
            print(f"corrupt {name} sampled population: counted as {failed} failed operation")


if __name__ == "__main__":
    smoke()
    corruption()
    print("selftest passed")
