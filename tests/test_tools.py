"""Smoke test of the timing tools: each runs at its smallest arguments.

The tools import private names (PyramidOram._scan_level0, core.path_buckets,
oprim._SORT_MIN_WIDTH, prn._BLOCK_ROWS, analysis._first_fit_tags), so a
rename shows here.  tools/bench_pairs.py is left out: it needs two checkouts.
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
