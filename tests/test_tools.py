"""Smoke test of the timing tools: each runs at its smallest arguments.

The tools import private names (PyramidOram._scan_level0, core.path_buckets,
oprim._SORT_MIN_WIDTH, prn._BLOCK_ROWS, analysis._first_fit_tags), so a
rename shows here.  tools/bench_pairs.py needs two checkouts to run, so only
its refusal of a seed range too short to summarise, which comes first, is run,
and its count of the seeds the change did better in is called directly.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("argv,header", [
    (["online_bench.py", "--accesses", "640", "--keys", "20", "--repeats", "1"],
     "N=16384, p=64, t=640, 20 calls per layer, min of 1 passes\n"),
    (["stage_perm_bench.py", "--repeats", "1", "--builds", "20"],
     "mc_prn_stage_spill(256, 2, 256, 10000): "),
])
def test_tool_runs_and_prints_its_header(argv, header):
    proc = subprocess.run([sys.executable, str(TOOLS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(header), proc.stdout[:200]


@pytest.mark.parametrize("spec", ["3-3", "5-4"])
def test_bench_pairs_refuses_fewer_than_two_seeds(tmp_path, spec):
    # one seed has no quartiles: the runs would all be made, then the
    # summary would fail and write nothing
    out = tmp_path / "bench.json"
    missing = str(tmp_path / "no-checkout")
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "bench_pairs.py"), "--parent", missing,
         "--change", missing, "--workloads", "uniform", "--seeds", spec,
         "--out", str(out)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "at least two seeds" in proc.stderr
    assert not out.exists()


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_counts_the_seeds_the_change_did_better_in():
    # lower is better for times and memory, higher for throughput; a tie is
    # not better
    def side(p99, items, rss):
        return {"uniform": {"op_p99_ms": {"values": p99},
                            "peak_rss_mb": {"values": rss}},
                "spill-mc": {"items_per_s": {"values": items}}}

    parent = side([2.0, 2.0, 2.0], [10.0, 10.0, 10.0], [100.0, 100.0, 100.0])
    change = side([1.0, 3.0, 1.5], [12.0, 10.0, 9.0], [100.0, 99.0, 101.0])
    assert _bench_pairs().change_better(parent, change) == {
        "uniform": {"op_p99_ms": "2/3", "peak_rss_mb": "1/3"},
        "spill-mc": {"items_per_s": "1/3"},
    }
