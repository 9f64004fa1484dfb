"""Smoke test of the timing tools: each runs at its smallest arguments.

The tools import private names (PyramidOram._scan_level0, core.path_buckets,
oprim._SORT_MIN_WIDTH, prn._BLOCK_WORDS, analysis._first_fit_tags), so a
rename shows here.  tools/bench_pairs.py
needs two checkouts to run, so only its refusal of a seed range too short to
summarise, which comes first, is run, and its environment block, its count
of the seeds the change did better in and its verdict per metric are called
directly.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


# each tool's second line; stage_perm_bench's bulk load runs in a subprocess
SECOND_LINE = {
    "online_bench.py": "layer ",
    "stage_perm_bench.py": "bulk_load(N=16384, p=64, 56-byte payloads), fresh process: ",
}


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
    assert proc.stdout.splitlines()[1].startswith(SECOND_LINE[argv[0]]), \
        proc.stdout[:400]


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


def test_bench_pairs_records_what_moves_the_metrics(monkeypatch):
    # the CPUs the runs may use, which the estimators' thread count follows,
    # and whether the runs write bytecode
    module = _bench_pairs()
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    env = module.environment()
    assert set(env) == {"python", "numpy", "nproc", "usable_cpus", "machine",
                        "PYTHONDONTWRITEBYTECODE"}
    assert 1 <= env["usable_cpus"] <= env["nproc"]
    assert env["PYTHONDONTWRITEBYTECODE"] is False
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert module.environment()["PYTHONDONTWRITEBYTECODE"] is True


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


def test_bench_pairs_verdict_per_metric():
    # gain: 9 of 10 seeds better and a median gap wider than the parent's
    # quartile distance; worse: a median past the bound; else unresolved
    module = _bench_pairs()
    summarise = module.summarise
    parent_rss = [100.0 + i for i in range(10)]            # quartiles 101.75, 107.25
    parent = {"uniform": {
        "peak_rss_mb": summarise(parent_rss),
        "op_p99_ms": summarise([1.0] * 10),
        "op_p50_ms": summarise([1.0] * 10),
        "items_per_s": summarise([100.0] * 10),
    }, "spill-mc": {"items_per_s": summarise([100.0] * 10)}}
    change = {"uniform": {
        # 9/10 lower by 10: the medians differ by 10 > 4.5
        "peak_rss_mb": summarise([v - 10 for v in parent_rss[:9]] + [200.0]),
        "op_p99_ms": summarise([1.3] * 10),                 # +30% > 25%
        "op_p50_ms": summarise([1.2] * 10),                 # +20%: within
        "items_per_s": summarise([74.0] * 10),              # -26% > 25%
    }, "spill-mc": {"items_per_s": summarise([101.0] * 8 + [99.0] * 2)}}
    bounds = {"peak_rss_mb": 0.1, "op_p99_ms": 0.25, "op_p50_ms": 0.25,
              "items_per_s": 0.25}
    assert module.verdicts(parent, change, bounds) == {
        "uniform": {"peak_rss_mb": "gain", "op_p99_ms": "worse",
                    "op_p50_ms": "unresolved", "items_per_s": "worse"},
        # 8/10 better is short of 9/10
        "spill-mc": {"items_per_s": "unresolved"},
    }
    # every seed better, but by less than the parent's quartile distance
    narrow = {"uniform": {"peak_rss_mb": summarise([v - 1 for v in parent_rss])}}
    assert module.verdicts({"uniform": {"peak_rss_mb": parent["uniform"]["peak_rss_mb"]}},
                           narrow, bounds) == {"uniform": {"peak_rss_mb": "unresolved"}}
