#!/usr/bin/env python3
"""Run the benchmark on two checkouts in interleaved pairs; write a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workloads uniform spill-mc --seeds 1-10 --seconds 40 --out BENCH_N.json

Each checkout runs its own perfbench/run.py --trace 0 from its own root, one
run at a time.  Workload by workload, every seed runs on both sides back to
back, and the side that runs first alternates with the seed (parent first on
odd seeds), so a change in the machine's speed falls on both sides alike,
and no run but the first of a workload follows a run of another workload.
Each side's values are summarised with perfbench/repeat.py's summarise.  The
output has the layout of the earlier BENCH files: method, environment
(environment(): versions, CPUs, and what else moves the metrics),
seconds, seeds, run_order, and per side, workload and metric the values in
seed order with their median and quartile spread.  Per workload and metric
it also writes, under change_better, and prints in how many seeds the change
did better than the parent, as "k/N", and under verdict the verdict on the
change (verdicts): "gain", "worse" against the metric's bound in the
BENCHMARK.json beside this tool, which is only read, or "unresolved".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from repeat import seeds, summarise  # noqa: E402

LOWER_IS_BETTER = {"op_p50_ms", "op_p99_ms", "setup_s", "peak_rss_mb"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed its checks")
    return result


def _wins(name: str, parent: dict, change: dict) -> int:
    """The seeds in which the change did better than the parent on metric
    `name`, given each side's {"values": ...} in seed order: lower is better
    for LOWER_IS_BETTER, higher otherwise."""
    return sum((c < p) if name in LOWER_IS_BETTER else (c > p)
               for p, c in zip(parent["values"], change["values"]))


def change_better(parent: dict, change: dict) -> dict:
    """Per workload and metric of two sides' summaries (workload -> metric
    -> {"values": ...}), the seeds in which the change did better than the
    parent (_wins), as "k/N"."""
    return {workload: {name: f"{_wins(name, side, change[workload][name])}/"
                             f"{len(side['values'])}"
                       for name, side in metrics.items()}
            for workload, metrics in parent.items()}


def verdicts(parent: dict, change: dict, bounds: dict) -> dict:
    """Per workload and metric of two sides' summaries (workload -> metric ->
    summarise()'s dict), the verdict on the change: "gain" when it did
    better (_wins) in at least 9 of every 10 seeds and its median is better
    by more than the parent's quartile distance, "worse" when its median is
    worse than the parent's by more than the metric's relative bound in
    `bounds` (metric -> bound), "unresolved" otherwise."""
    out = {}
    for workload, metrics in parent.items():
        out[workload] = {}
        for name, side in metrics.items():
            other = change[workload][name]
            sign = -1 if name in LOWER_IS_BETTER else 1
            gap = sign * (other["median"] - side["median"])
            if 10 * _wins(name, side, other) >= 9 * len(side["values"]) and \
                    gap > side["spread"] * side["median"]:
                out[workload][name] = "gain"
            elif -gap > bounds[name] * side["median"]:
                out[workload][name] = "worse"
            else:
                out[workload][name] = "unresolved"
    return out


def environment() -> dict:
    """What the runs ran on: Python and numpy versions, the machine's CPUs
    (nproc) and those this process may use (usable_cpus, which the
    estimators run their blocks on, and which nproc can overstate), the
    architecture, and whether PYTHONDONTWRITEBYTECODE was set, which decides
    whether the runs import from written bytecode."""
    import numpy

    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "usable_cpus": usable,
            "machine": platform.machine(),
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-commit", default="")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seed_list = seeds(args.seeds)
    if len(seed_list) < 2:  # refused before any run: summarise needs two
        parser.error(f"--seeds {args.seeds} names {len(seed_list)} seed(s); "
                     "a quartile spread needs at least two seeds")

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: {w: [] for w in args.workloads} for side in sides}
    order = []
    for workload in args.workloads:
        for seed in seed_list:
            turn = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for side in turn:
                result = run_once(sides[side], workload, seed, args.seconds)
                runs[side][workload].append(result["metrics"])
                order.append(f"{side} {workload} {seed}")
                print(f"{side:6s} {workload:10s} seed {seed:3d} " + " ".join(
                    f"{name} {m['value']:.6g}"
                    for name, m in result["metrics"].items()), flush=True)

    summary = {
        "method": (f"run.py --trace 0 --seconds {args.seconds:g}, one run at a "
                   "time, on two checkouts, written by tools/bench_pairs.py: "
                   "workload by workload, each seed runs on both sides back to "
                   "back; the side that runs first alternates with the seed "
                   "(parent first on odd seeds). Every run read correct with 0 "
                   "failed operations."),
        "parent_commit": args.parent_commit,
        "environment": environment(),
        "seconds": args.seconds,
        "seeds": ",".join(map(str, seed_list)),
        "run_order": order,
    }
    for side in sides:
        summary[side] = {
            workload: {name: {"unit": first["unit"],
                              **summarise([r[name]["value"] for r in results])}
                       for name, first in results[0].items()}
            for workload, results in runs[side].items()}
    summary["change_better"] = change_better(summary["parent"], summary["change"])
    bounds = {metric["name"]: metric["bound"] for metric in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary["verdict"] = verdicts(summary["parent"], summary["change"], bounds)
    for workload, metrics in summary["change_better"].items():
        for name, wins in metrics.items():
            parent = summary["parent"][workload][name]["median"]
            change = summary["change"][workload][name]["median"]
            print(f"{workload:10s} {name:12s} parent {parent:10.4g} "
                  f"change {change:10.4g} ({change / parent - 1:+7.1%}), "
                  f"change better in {wins}: "
                  f"{summary['verdict'][workload][name]}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
