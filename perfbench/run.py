#!/usr/bin/env python3
"""Benchmark of the oblivious store: one workload, one closed-loop run.

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's own src/; without it the run fails with exit status 2 and prints
no result.  Workloads are described in workloads.py and README.md.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
reports the end-to-end metrics, measured with nothing patched.  --trace 1
runs every unit of work twice on identical inputs, untraced then traced,
checks the two agree, and reports the per-layer metrics and the tracing
overhead.  Exit status is 0 when every output check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import pyramid_oram from this checkout's src/, or exit 2."""
    if not (SRC / "pyramid_oram" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'pyramid_oram'}")
    sys.path.insert(0, str(SRC))
    import pyramid_oram

    if Path(pyramid_oram.__file__).resolve().parent != SRC / "pyramid_oram":
        _fail(f"imported pyramid_oram from {pyramid_oram.__file__}")


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _show(value) -> str:
    return f"{value:14.6g}" if value is not None else f"{'n/a':>14s}"


def end_to_end(out) -> dict:
    import numpy as np

    ops = np.asarray(out.op_ns, dtype=np.float64)
    return {
        "op_p50_ms": float(np.median(ops)) / 1e6 if ops.size else None,
        "op_p99_ms": float(np.percentile(ops, 99)) / 1e6 if ops.size else None,
        "items_per_s": out.items / out.wall_s if out.wall_s else None,
        "setup_s": statistics.median(out.setup_s) if out.setup_s else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def _scaled(value, factor):
    return value * factor if value is not None else None


def named_metrics(workload: str, e2e: dict, out) -> list[tuple[str, float, str]]:
    """The end-to-end figures under the names the workload's users read."""
    if workload in ("uniform", "zipf"):
        rows = [
            ("access_p50_us", _scaled(e2e["op_p50_ms"], 1e3), "us"),
            (f"access_p99_us ({len(out.op_ns)} samples)",
             _scaled(e2e["op_p99_ms"], 1e3), "us"),
            ("throughput_ops_s", e2e["items_per_s"], "1/s"),
        ]
    elif workload == "bulk-load":
        rows = [(f"build_s (median of {len(out.op_ns)})",
                 _scaled(e2e["op_p50_ms"], 1e-3), "s")]
    else:
        rows = [("trials_per_s", e2e["items_per_s"], "1/s")]
    return rows + [
        (f"setup_s (median of {len(out.setup_s)})", e2e["setup_s"], "s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("failed_frac", out.failed / max(out.attempted, 1), "ratio"),
    ]


def traced_metrics(out) -> dict:
    from tracer import absent_boundaries, closed_form_checks, layer_metrics

    absent = absent_boundaries(out.spans, out.expected)
    for text, status in closed_form_checks(out.spans, out.expected, absent, out.p):
        print(f"closed form: {text}: {status}")
        if status.startswith("FAIL"):
            out.check(text, False)
    for name in sorted(absent):
        print(f"boundary {name}: absent")
    metrics = layer_metrics(out.spans, absent)
    overhead = out.traced_wall_s - out.wall_s
    metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["tracing.overhead_ratio"] = {
        "value": overhead / out.wall_s if out.wall_s else None, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["uniform", "zipf", "bulk-load", "spill-mc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_package()
    import numpy as np

    import workloads

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  numpy {np.__version__}  "
          f"nproc {os.cpu_count()}")
    e2e = end_to_end(out)
    for name, value, unit in named_metrics(args.workload, e2e, out):
        print(f"{name:34s} {_show(value)} {unit}")
    if args.trace:
        metrics = traced_metrics(out)
        for name, m in metrics.items():
            print(f"{name:40s} {m.get('status') or _show(m['value'])} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for text, ok in out.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {text}")
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
