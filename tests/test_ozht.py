"""Oblivious builds: invariants, exact access counts, and failure modes."""

import numpy as np
import pytest

from pyramid_oram import zht
from pyramid_oram.core import KEY_SENTINEL, HashFamily, InvalidParameterError, Rng
from pyramid_oram.ozht import (
    FAILURE_FINAL_SPILL,
    FAILURE_NONE,
    FAILURE_THROW,
    build_access_count,
    oblivious_build,
)
from pyramid_oram.trace import TraceRecorder, shapes_equal

from conftest import make_elems

PAYLOAD = 8

# n=4, k=1, c=1, four reals: frozen seeds that hit each terminal outcome
# (found by scanning seed = rng seed = hash seed over 0..399)
SEED_THROW_OVERFLOW = 0
SEED_FINAL_SPILL = 13
SEED_SUCCESS_TIGHT = 34


def build(reals, m_total, n, k, c, seed, recorder=None, debug=False):
    elems = make_elems(reals, m_total, PAYLOAD)
    fam = HashFamily(seed=seed)
    return oblivious_build(elems, n, k, c, fam, Rng(seed, (0,)),
                           recorder=recorder)


def test_successful_build_invariants(debug_checks):
    n, k, c = 32, 3, 2
    reals = 24
    z, report = build(reals, n * c * k, n, k, c, seed=0)
    assert report.success and report.failure_reason == FAILURE_NONE
    assert report.real_count == reals
    assert sum(z.real_counts()) == reals
    # single residency and searchability for every key
    seen = sorted(k for k, _ in z.real_items())
    assert seen == list(range(reals))
    for key in range(reals):
        assert z.search(key) == bytes([key % 251] * PAYLOAD)
    # every resident real is parked on its own hash bucket
    for j, tbl in enumerate(z.tables):
        mask = tbl.key != KEY_SENTINEL
        rows = np.nonzero(mask)[0]
        want = z.fam.bucket_indices(z.level_id, j, tbl.key[mask], n)
        assert np.array_equal(rows, want)


def test_arrivals_start_at_real_count_and_shrink():
    z, report = build(40, 200, 64, 3, 2, seed=0)
    assert report.success
    assert report.arrivals_per_table[0] == 40
    for a, b in zip(report.arrivals_per_table, report.arrivals_per_table[1:]):
        assert b <= a
    assert sum(report.occupancy_per_table) == 40


def test_trace_length_matches_access_formula():
    for n, k, c, reals in ((16, 1, 2, 6), (16, 2, 2, 10), (8, 3, 4, 8),
                           (32, 4, 2, 20)):
        m_total = n * c * k
        rec = TraceRecorder()
        z, report = build(reals, m_total, n, k, c, seed=1, recorder=rec)
        assert report.success, (n, k, c)
        assert len(rec) == build_access_count(m_total, n, k, c)


def test_access_formula_k1_literal():
    # one table: throw cost + one routing pass, no re-throw sweeps
    assert build_access_count(100, 16, 1, 2) == 100 + 16 * 4
    assert build_access_count(0, 8, 2, 3) == 2 * 8 * 3 + 8 * 3 * 1


def test_access_formula_validates():
    with pytest.raises(InvalidParameterError):
        build_access_count(10, 12, 2, 2)
    with pytest.raises(InvalidParameterError):
        build_access_count(-1, 16, 2, 2)


def test_build_shape_independent_of_contents():
    n, k, c = 16, 3, 2
    m_total = n * c * k
    shapes = []
    for reals in (0, 5, 16):
        rec = TraceRecorder()
        z, report = build(reals, m_total, n, k, c, seed=0, recorder=rec)
        assert report.success
        shapes.append(rec.shape_projection())
    assert shapes_equal(shapes[0], shapes[1])
    assert shapes_equal(shapes[1], shapes[2])


def test_build_rejects_more_reals_than_drain():
    with pytest.raises(InvalidParameterError):
        build(17, 64, 16, 2, 2, seed=0)
    with pytest.raises(InvalidParameterError):
        build(4, 12, 12, 1, 1, seed=0)  # non-power-of-two n


def test_throw_overflow_failure_frozen():
    z, report = build(4, 4, 4, 1, 1, seed=SEED_THROW_OVERFLOW)
    assert not report.success
    assert report.failure_reason == FAILURE_THROW
    assert report.throw_unplaced > 0
    assert report.arrivals_per_table == []  # bailed before routing


def test_final_phase_spill_failure_frozen():
    z, report = build(4, 4, 4, 1, 1, seed=SEED_FINAL_SPILL)
    assert not report.success
    assert report.failure_reason == FAILURE_FINAL_SPILL
    assert report.throw_unplaced == 0
    assert report.spills_after_phase[-1] > 0


def test_tight_success_frozen(debug_checks):
    z, report = build(4, 4, 4, 1, 1, seed=SEED_SUCCESS_TIGHT)
    assert report.success
    assert sorted(k for k, _ in z.real_items()) == [0, 1, 2, 3]


def test_failed_attempt_trace_is_shorter():
    rec = TraceRecorder()
    build(4, 4, 4, 1, 1, seed=SEED_THROW_OVERFLOW, recorder=rec)
    assert len(rec) < build_access_count(4, 4, 1, 1)


def test_failed_sweep_is_independent_of_the_block_size(monkeypatch):
    # k=2, c=1, seed 23: table 0's routing spills three reals and the sweep's
    # re-throw of one falls off table 1.  Every block of the sweep's 8 rows is
    # drawn before the first insert, so the stream ends where it did when the
    # sweep was one draw.
    def run(block):
        monkeypatch.setattr(zht, "_BLOCK_ROWS", block)
        rng, rec = Rng(23, (0,)), TraceRecorder()
        z, report = oblivious_build(make_elems(6, 24, PAYLOAD), 8, 2, 1,
                                    HashFamily(seed=23), rng, recorder=rec)
        trace = b"".join(column.tobytes() for column in rec.to_arrays())
        return (z.store.key.tobytes(), z.store.payload.tobytes(), report,
                trace, rng.bits64())

    want = run(1 << 20)
    assert want[2].failure_reason == FAILURE_THROW
    assert want[2].spills_after_phase == [3]
    for block in (1, 3, 7):
        assert run(block) == want


def test_report_serializes():
    _, report = build(6, 32, 16, 2, 1, seed=2)
    d = report.to_dict()
    assert d["success"] == report.success
    assert d["arrivals_per_table"] == report.arrivals_per_table
    assert isinstance(d["route_stage_spills"], list)
