#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workloads uniform bulk-load --seeds 1-10 \
        --seconds 40 --out perfbench/results/example.json

For every workload and metric it reports the values in seed order, their
median and their quartile spread: (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  One run at a time, one process each.
Runs go seed by seed, each seed through every workload, so that a change in
the machine's speed during the set falls on every workload alike rather
than on one block of seeds of one workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    import numpy

    summary = {
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "nproc": os.cpu_count(),
                        "machine": platform.machine()},
        "seconds": args.seconds, "seeds": args.seeds,
        "workloads": {},
    }
    runs = {workload: [] for workload in args.workloads}
    for seed in seeds(args.seeds):
        for workload in args.workloads:
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: a run failed its "
                                 "output checks")
            runs[workload].append(result)
            print(f"{workload:10s} seed {seed:3d} " + " ".join(
                f"{name} {m['value']:.6g}"
                for name, m in result["metrics"].items()), flush=True)
    for workload, results in runs.items():
        metrics = {
            name: {"unit": first["unit"],
                   **summarise([r["metrics"][name]["value"] for r in results])}
            for name, first in results[0]["metrics"].items()}
        summary["workloads"][workload] = metrics
        for name, m in metrics.items():
            print(f"{workload:10s} {name:14s} median {m['median']:12.6g} "
                  f"{m['unit']:4s} spread {m['spread']:7.2%}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
