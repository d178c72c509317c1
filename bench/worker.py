"""Runs one workload command repeatedly in a fresh process and times it.

Usage: python3 bench/worker.py <job.json>

The job names the CLI arguments, a warm-up command, the seconds to
measure and whether to trace. The process imports the package from the
checkout's ``src``, runs the warm-up, then repeats the command through
``patternwalks.cli.main`` until the seconds are used. Per repetition it
records the wall time, exit code and a hash of every output file; the
first repetition's outputs are kept for the correctness checks. Results,
and with tracing the spans, are written once, at the end.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback


def _outputs(out_dir: str) -> tuple[dict[str, str], int]:
    """Hash of each output file, and their total size in bytes."""
    hashes, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return hashes, size


def _save_sweep(path: str, result) -> None:
    import numpy as np

    keys = sorted(result.trajectories)
    pops = [result.trajectories[k].populations for k in keys]
    np.savez(path, keys=np.array(keys, dtype=float).reshape(-1, 2),
             pops=np.array(pops, dtype=float))


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    from patternwalks import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"patternwalks imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import ROOT, Tracer, rep_metrics

        tracer = Tracer()
        tracer.install()

    captured = []
    run_sweep = cli.run_sweep

    def capture(*args, **kwargs):
        # Keeps the sweep's in-memory trajectories for the population
        # check; one extra call per command.
        result = run_sweep(*args, **kwargs)
        captured.append(result)
        return result

    cli.run_sweep = capture

    out_dir = job["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    cli.main(job["warm_args"])
    shutil.rmtree(out_dir)
    os.makedirs(out_dir)

    reps = []
    started = time.perf_counter()
    while True:
        k = len(reps)
        captured.clear()
        rep = {"rc": None, "error": ""}
        if tracer is not None:
            tracer.rep = k
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                with tracer.span(ROOT):
                    rep["rc"] = cli.main(job["args"])
            else:
                rep["rc"] = cli.main(job["args"])
        except Exception:  # a crash is counted as a failed operation, not fatal
            rep["error"] = traceback.format_exc(limit=3)
        rep["wall_s"] = time.perf_counter() - t0
        rep["cpu_s"] = time.process_time() - c0
        rep["outputs"], rep["bytes"] = _outputs(out_dir)
        if k == 0:
            shutil.copytree(out_dir, job["keep_dir"])
            if captured:
                _save_sweep(job["capture_path"], captured[0])
        shutil.rmtree(out_dir)
        os.makedirs(out_dir)
        reps.append(rep)
        if time.perf_counter() - started >= job["seconds"]:
            break

    result = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["missing_wraps"] = tracer.missing
        result["rep_metrics"] = [
            rep_metrics([s for s in tracer.spans if s.rep == k], rep["wall_s"], rep["bytes"])
            for k, rep in enumerate(reps)
        ]
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump([list(vars(s).values()) for s in tracer.spans], fh)
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
