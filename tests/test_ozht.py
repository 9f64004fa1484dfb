"""Oblivious builds: invariants, exact access counts, and failure modes."""

import numpy as np
import pytest

from pyramid_oram import zht
from pyramid_oram.core import (
    KEY_SENTINEL,
    HashFamily,
    InvalidParameterError,
    Rng,
    SlotArray,
)
from pyramid_oram.ozht import (
    FAILURE_FINAL_SPILL,
    FAILURE_NONE,
    FAILURE_THROW,
    build_access_count,
    oblivious_build,
)
from pyramid_oram.trace import TraceRecorder, shapes_equal
from pyramid_oram.zht import BuildInput, Zht

from conftest import make_elems, make_slots

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


def test_failure_depends_on_the_reals_not_only_public_randomness():
    # the same hash family, stream and shape (n=2, k=1, c=1, two slots, two
    # reals); only one real key differs, and with it the outcome
    outcomes = []
    for keys in ([0, 2], [0, 1]):
        elems = SlotArray(2, PAYLOAD)
        elems.key[:] = keys
        _, report = oblivious_build(BuildInput.gather([elems]), 2, 1, 1,
                                    HashFamily(seed=5), Rng(1, ()))
        outcomes.append(report.failure_reason)
    assert outcomes == [FAILURE_FINAL_SPILL, FAILURE_NONE]


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


def _build_input(**change) -> BuildInput:
    """Three reals among six slots, with the fields in `change` swapped in."""
    fields = {"size": 6, "rows": np.array([0, 2, 5]),
              "key": np.array([7, 3, 9], np.uint32),
              "payload": np.zeros((3, PAYLOAD), np.uint8)}
    return BuildInput(**{**fields, **change})


@pytest.mark.parametrize("change,match", [
    # a row equal to size died in draw_paths with an IndexError
    ({"rows": np.array([0, 2, 6])}, "rows must ascend"),
    ({"rows": np.array([-1, 2, 5])}, "rows must ascend"),
    ({"rows": np.array([0, 5, 2])}, "rows must ascend"),
    ({"rows": np.array([0, 2, 2])}, "rows must ascend"),
    ({"rows": np.array([0.0, 2.0, 5.0])}, "rows must be a 1-D integer"),
    ({"rows": np.array([[0, 2, 5]])}, "rows must be a 1-D integer"),
    ({"rows": [0, 2, 5]}, "rows must be a 1-D integer"),
    # a sentinel among the reals was counted as a real but stored as a dummy
    ({"key": np.array([7, KEY_SENTINEL, 9], np.uint32)}, "sentinel"),
    # a repeated key was stored twice, and the build reported success
    ({"key": np.array([7, 3, 7], np.uint32)}, "must not repeat"),
    ({"key": np.array([7, 3, 9], np.int64)}, "key must be uint32"),
    ({"key": np.array([7, 3], np.uint32)}, "key must be uint32"),
    ({"payload": np.zeros((2, PAYLOAD), np.uint8)}, "payload must be"),
    ({"payload": np.zeros((3, PAYLOAD), np.int64)}, "payload must be"),
    ({"payload": np.zeros(3 * PAYLOAD, np.uint8)}, "payload must be"),
    ({"size": 6.0}, "size must be an integer"),
    ({"size": -1, "rows": np.zeros(0, np.int64), "key": np.zeros(0, np.uint32),
      "payload": np.zeros((0, PAYLOAD), np.uint8)}, "size must be non-negative"),
])
def test_build_input_refuses_what_a_build_cannot_store(change, match):
    with pytest.raises(InvalidParameterError, match=match):
        _build_input(**change)


def test_build_input_checks_pass_a_valid_input():
    elems = _build_input(size=np.int64(6), rows=np.array([0, 2, 5], np.uint8))
    assert elems.size == 6 and type(elems.size) is int
    empty = _build_input(rows=np.zeros(0, np.int64), key=np.zeros(0, np.uint32),
                         payload=np.zeros((0, PAYLOAD), np.uint8))
    assert empty.payload_size == PAYLOAD
    _, report = oblivious_build(elems, 4, 2, 2, HashFamily(1), Rng(1))
    assert report.success and report.real_count == 3


def test_build_and_throw_take_only_a_build_input():
    slots = make_slots(3, 6, PAYLOAD)
    with pytest.raises(InvalidParameterError, match="BuildInput"):
        oblivious_build(slots, 4, 2, 2, HashFamily(1), Rng(1))
    with pytest.raises(InvalidParameterError, match="BuildInput"):
        Zht(4, 2, 2, HashFamily(1), payload_size=PAYLOAD).throw(slots, Rng(1))


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


def _scattered(shape, keys) -> SlotArray:
    """A SlotArray of `shape` holding `keys` at every third flat slot."""
    part = SlotArray(shape, PAYLOAD)
    flat_key = part.key.reshape(-1)
    flat_pay = part.payload.reshape(-1, PAYLOAD)
    cells = np.arange(len(keys)) * 3
    flat_key[cells] = keys
    flat_pay[cells] = (np.asarray(keys)[:, None] * 7 + np.arange(PAYLOAD)) % 251
    return part


# (parts, n, k, c, seed, expected failure_reason)
GATHER_CASES = {
    "mixed": (lambda: [_scattered((2, 4, 2), [40, 3, 17]), SlotArray(5, PAYLOAD),
                       make_slots(4, 4, PAYLOAD, key_offset=20),
                       _scattered(9, [8, 90, 1]), SlotArray((2, 3), PAYLOAD),
                       make_slots(2, 2, PAYLOAD, key_offset=60)],
              16, 2, 2, 5, FAILURE_NONE),
    "empty": (lambda: [SlotArray(8, PAYLOAD), SlotArray((2, 4, 2), PAYLOAD)],
              8, 2, 2, 1, FAILURE_NONE),
    "failing": (lambda: [make_slots(2, 2, PAYLOAD), SlotArray(3, PAYLOAD),
                         make_slots(2, 2, PAYLOAD, key_offset=2)],
                4, 1, 1, SEED_THROW_OVERFLOW, FAILURE_THROW),
}


@pytest.mark.parametrize("case", sorted(GATHER_CASES))
def test_gathered_parts_build_as_their_concatenation(case):
    # a build from the reals gathered out of several parts equals one from
    # the parts copied into a single padded array, dummies included
    make_parts, n, k, c, seed, reason = GATHER_CASES[case]
    parts = make_parts()
    whole = SlotArray(sum(part.size for part in parts), PAYLOAD)
    whole.key[:] = np.concatenate([part.key.reshape(-1) for part in parts])
    whole.payload[:] = np.concatenate(
        [part.payload.reshape(-1, PAYLOAD) for part in parts])

    def run(elems):
        rng, rec = Rng(seed, (0,)), TraceRecorder()
        z, report = oblivious_build(elems, n, k, c, HashFamily(seed=seed), rng,
                                    recorder=rec)
        trace = b"".join(column.tobytes() for column in rec.to_arrays())
        return (z.store.key.tobytes(), z.store.payload.tobytes(),
                report.to_dict(), trace, rng.bits64())

    gathered = BuildInput.gather(parts)
    reals = whole.real_count()
    assert gathered.size == whole.size
    assert gathered.rows.size == reals and gathered.key.size == reals
    assert gathered.payload.shape == (reals, PAYLOAD)
    got, want = run(gathered), run(BuildInput.gather([whole]))
    assert got[2]["failure_reason"] == reason
    assert got == want


def test_report_serializes():
    _, report = build(6, 32, 16, 2, 1, seed=2)
    d = report.to_dict()
    assert d["success"] == report.success
    assert d["arrivals_per_table"] == report.arrivals_per_table
    assert isinstance(d["route_stage_spills"], list)
