"""Smoke test of the timing tools: each runs at its smallest arguments.

The tools import private names (PyramidOram._scan_level0, core.path_buckets,
oprim._SORT_MIN_WIDTH, prn._BLOCK_ROWS, analysis._first_fit_tags), so a
rename shows here.  tools/bench_pairs.py needs two checkouts to run, so only
its refusal of a seed range too short to summarise, which comes first, is run.
"""

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
