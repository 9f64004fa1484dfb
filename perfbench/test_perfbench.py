"""Checks of the benchmark itself, at small configs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from pyramid_oram import PyramidOram, TraceRecorder
from pyramid_oram.zht import Zht

import workloads
from tracer import (
    ABSENT,
    BOUNDARIES,
    Boundary,
    Tracer,
    absent_boundaries,
    closed_form_checks,
    layer_metrics,
)

SMALL_STORE = workloads.StoreShape(256, 16, 8)
SMALL_ZIPF = workloads.StoreShape(256, 16, 8, zipf_theta=0.99)
SMALL_BULK = workloads.BulkShape(1024, 16, 8)
SMALL_SPILL = workloads.SpillShape(64, 2, 64, 200)


def _trace_bytes(recorder: TraceRecorder) -> bytes:
    return b"".join(column.tobytes() for column in recorder.to_arrays())


def _recorded_period(shape, seed: int, traced: bool):
    items = workloads.load_items(shape, seed)
    ops = workloads.period_ops(shape, seed)
    online, build = TraceRecorder(True), TraceRecorder(True)
    oram = PyramidOram(workloads.store_config(shape, seed), online, build)
    with Tracer() if traced else nullcontext():
        oram.bulk_load(items)
        outs = [oram.access_with_record(op, key, value) for op, key, value in ops]
    return outs, _trace_bytes(online), _trace_bytes(build), oram.stored_items()


def test_traced_run_leaves_program_unchanged():
    for shape in (SMALL_STORE, SMALL_ZIPF):
        plain = _recorded_period(shape, 7, traced=False)
        traced = _recorded_period(shape, 7, traced=True)
        assert traced[0] == plain[0]          # values and AccessRecords
        assert len(plain[1]) and traced[1] == plain[1]   # online trace bytes
        assert len(plain[2]) and traced[2] == plain[2]   # build trace bytes
        assert traced[3] == plain[3]


def test_tracer_restores_every_boundary():
    before = Zht.search
    with Tracer():
        assert Zht.search is not before
    assert Zht.search is before
    assert "search" in vars(Zht)


def test_store_workload_checks_and_closed_forms_pass():
    for shape in (SMALL_STORE, SMALL_ZIPF):
        out = workloads.run_store(shape, 3, traced=True)
        assert out.correct, [c for c in out.checks if not c[1]]
        absent = absent_boundaries(out.spans, out.expected)
        assert not absent
        results = closed_form_checks(out.spans, out.expected, absent, out.p)
        assert len(results) == 5 and all(status == "ok" for _, status in results)
        metrics = layer_metrics(out.spans, absent)
        assert metrics["pyramid.access.calls"]["value"] == \
            shape.capacity * workloads.PERIODS
        assert metrics["pyramid.online_s"]["value"] > 0


def test_bulk_and_spill_workloads_pass_their_closed_forms():
    for out in (workloads.run_bulk(SMALL_BULK, 3, 0.0, traced=True),
                workloads.run_spill(SMALL_SPILL, 3, 0.0, traced=True)):
        assert out.correct, [c for c in out.checks if not c[1]]
        absent = absent_boundaries(out.spans, out.expected)
        assert not absent
        results = closed_form_checks(out.spans, out.expected, absent, out.p)
        assert results and all(status == "ok" for _, status in results)


def test_wrong_value_fails_the_run():
    items = workloads.load_items(SMALL_STORE, 1)
    oram = workloads.build_store(SMALL_STORE, 1, items)
    ref = dict(items)
    ref[5] = bytes(8) if ref[5] != bytes(8) else b"\x01" * 8
    out = workloads.Outcome()
    workloads.run_period(oram, [("read", 5, None)], ref, out)
    assert out.failed == 1 and not out.correct


def test_moved_or_idle_boundary_is_reported_absent():
    # a boundary whose name is gone, and one that exists but is never called
    gone = Boundary("prn.route", "pyramid_oram.ozht", "no_such_route")
    idle = next(b for b in BOUNDARIES if b.name == "zht.search")
    rest = [b for b in BOUNDARIES if b.name not in ("prn.route", "zht.search")]
    items = workloads.bulk_items(SMALL_BULK, 1)
    with Tracer(rest + [gone, idle]) as tracer:
        PyramidOram(workloads.store_config(SMALL_BULK, 1)).bulk_load(items)
    summary = tracer.summary()
    expected = {"ozht.build", "prn.route", "zht.search",
                "oprim.sort_network_perm"}
    absent = absent_boundaries(summary, expected)
    assert absent == {"prn.route", "zht.search"}
    metrics = layer_metrics(summary, absent)
    assert metrics["prn.route.repartitions"] == {
        "value": None, "unit": "count", "status": ABSENT}
    assert metrics["zht.search.calls"]["status"] == ABSENT
    assert metrics["ozht.build.calls"]["value"] == 1
    statuses = dict(closed_form_checks(summary, expected, absent, None))
    assert statuses["prn.route.repartitions == sum (n/2) log2 n over routed tables"] \
        == "skipped: prn.route absent"


def test_zipf_keys_are_skewed_and_in_range():
    ops = workloads.period_ops(workloads.WORKLOADS["zipf"], 1)
    keys = np.array([key for _, key, _ in ops])
    assert keys.min() >= 0 and keys.max() < 1 << 14
    counts = np.sort(np.bincount(keys))[::-1]
    assert counts[0] > 50 * np.median(counts[counts > 0])


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0 and proc.stdout == ""
