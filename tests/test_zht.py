"""Zigzag hash tables: paths, insertion, constant-shape search, batch throw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyramid_oram.analysis import zigzag_failure_union_bound
from pyramid_oram.core import (
    KEY_SENTINEL,
    HashFamily,
    InvalidParameterError,
    Rng,
    Slot,
    SlotArray,
    SlotState,
    set_debug_checks,
)
from pyramid_oram.trace import TraceOp, TraceRecorder, region_table, shapes_equal
from pyramid_oram.zht import Zht, ZhtTable

from conftest import make_elems

PAYLOAD = 8


def make_zht(n=16, k=3, c=2, seed=7, level_id=0) -> Zht:
    return Zht(n, k, c, HashFamily(seed=seed), level_id=level_id,
               payload_size=PAYLOAD)


def pay(key: int) -> bytes:
    return bytes([key % 251] * PAYLOAD)


def test_path_is_deterministic_and_in_range():
    z = make_zht()
    for key in (0, 1, 999, 2**31):
        p = z.path(key)
        assert p == z.path(key)
        assert len(p) == z.k
        assert all(0 <= b < z.n for b in p)


def test_path_matrix_agrees_with_scalar_path():
    z = make_zht(n=64, k=4)
    keys = np.arange(100, dtype=np.uint64)
    matrix = z.path_matrix(keys)
    assert matrix.shape == (100, 4)
    for row, key in enumerate(keys):
        assert matrix[row].tolist() == z.path(int(key))


def test_regions_distinct_per_table():
    z = make_zht(level_id=3)
    assert len(set(z.regions)) == z.k
    assert [region_table(r) for r in z.regions] == list(range(z.k))


def test_zigzag_insert_takes_first_free_bucket():
    z = make_zht()
    key = 42
    assert z.zigzag_insert(Slot.real(key, pay(key)), z.path(key))
    b = z.path(key)[0]
    assert z.tables[0].real_count() == 1
    assert int(z.tables[0].key[b, 0]) == key
    assert z.tables[0].tag[b, 0]


def test_zigzag_insert_overflows_to_next_table_and_falls_off():
    z = Zht(2, 2, 1, HashFamily(seed=0), payload_size=PAYLOAD)
    path = [0, 0]
    assert z.zigzag_insert(Slot.real(1, pay(1)), path)
    assert z.zigzag_insert(Slot.real(2, pay(2)), path)
    assert not z.zigzag_insert(Slot.real(3, pay(3)), path)
    assert z.real_counts() == [1, 1]


def test_zigzag_insert_touches_all_path_buckets():
    z = make_zht()
    rec = TraceRecorder()
    key = 5
    z.zigzag_insert(Slot.real(key, pay(key)), z.path(key), recorder=rec)
    events = rec.events()
    assert len(events) == z.k
    assert [e.index for e in events] == z.path(key)
    assert [e.region for e in events] == z.regions


def test_zigzag_insert_suffix_skips_earlier_tables():
    z = make_zht()
    key = 9
    suffix = z.path(key)[1:]
    assert z.zigzag_insert(Slot.real(key, pay(key)), suffix, first_table=1)
    assert z.tables[0].real_count() == 0
    assert z.tables[1].real_count() == 1
    with pytest.raises(InvalidParameterError):
        z.zigzag_insert(Slot.real(8, pay(8)), z.path(8), first_table=1)


def test_zigzag_insert_rejects_non_real():
    z = make_zht()
    with pytest.raises(InvalidParameterError):
        z.zigzag_insert(Slot.dummy(PAYLOAD), z.path(0))


def test_search_probes_every_table_even_after_hit():
    z = make_zht()
    key = 12
    z.zigzag_insert(Slot.real(key, pay(key)), z.path(key))
    rec = TraceRecorder()
    got = z.search(key, recorder=rec)
    assert got is not None and got.key == key and got.payload == pay(key)
    assert len(rec.events()) == z.k
    assert [e.index for e in rec.events()] == z.path(key)
    assert all(e.op == TraceOp.READ_WRITE for e in rec.events())


def test_search_miss_returns_none_with_same_shape():
    z = make_zht()
    rec_hit = TraceRecorder()
    rec_miss = TraceRecorder()
    key = 12
    z.zigzag_insert(Slot.real(key, pay(key)), z.path(key))
    z.search(key, recorder=rec_hit)
    assert z.search(4040, recorder=rec_miss) is None
    assert shapes_equal(rec_hit, rec_miss)


def test_search_remove_extracts_the_slot():
    z = make_zht()
    key = 77
    z.zigzag_insert(Slot.real(key, pay(key)), z.path(key))
    got = z.search(key, remove=True)
    assert got.payload == pay(key)
    assert sum(z.real_counts()) == 0
    assert z.search(key) is None
    # the vacated slot is a dummy, not empty
    b = z.path(key)[0]
    assert int(z.tables[0].state[b, 0]) == SlotState.DUMMY
    assert int(z.tables[0].key[b, 0]) == KEY_SENTINEL


def test_search_detects_double_residency_in_debug(debug_checks):
    z = make_zht()
    key = 31
    z.zigzag_insert(Slot.real(key, pay(key)), z.path(key))
    # force a second copy into table 1 behind the structure's back
    b = z.path(key)[1]
    z.tables[1].key[b, 0] = key
    z.tables[1].state[b, 0] = SlotState.REAL
    with pytest.raises(AssertionError):
        z.search(key)


def test_dummy_search_emits_k_uniform_buckets():
    z = make_zht(n=32, k=2)
    rec = TraceRecorder()
    rng = Rng(5, (0,))
    for _ in range(4000):
        z.dummy_search(rng, recorder=rec)
    assert len(rec) == 8000
    for region in z.regions:
        counts = rec.index_histogram(region, z.n)
        assert counts.sum() == 4000
        # loose uniformity screen; the real test is the chi-square criterion
        assert counts.min() > 0


def test_throw_trace_covers_every_slot_and_table():
    z = make_zht(n=16, k=3)
    elems = make_elems(5, 20, PAYLOAD)
    rec = TraceRecorder()
    report = z.throw(elems, "random", Rng(8, ()), recorder=rec)
    assert len(rec) == 20 * 3
    assert report.unplaced == 0
    assert sum(report.placed_per_table) == 5


def test_throw_shape_is_independent_of_real_mix():
    shapes = []
    for reals in (0, 7, 20):
        z = make_zht(n=16, k=3)
        rec = TraceRecorder()
        z.throw(make_elems(reals, 20, PAYLOAD), "random", Rng(10, (reals,)),
                recorder=rec)
        shapes.append(rec.shape_projection())
    assert shapes_equal(shapes[0], shapes[1])
    assert shapes_equal(shapes[1], shapes[2])


def test_throw_prf_places_on_hash_paths():
    z = make_zht(n=64, k=3)
    elems = make_elems(10, 12, PAYLOAD)
    report = z.throw(elems, "prf", Rng(11, ()))
    assert report.unplaced == 0
    for key, _ in z.real_items():
        found = False
        for j, tbl in enumerate(z.tables):
            rows = np.argwhere((tbl.key == key) & (tbl.state == SlotState.REAL))
            for b, _s in rows:
                assert int(b) == z.path(key)[j]
                found = True
        assert found


def test_throw_accounting_chain():
    # arrivals at table j+1 equal spills at table j; leftovers fall off the end
    z = Zht(2, 3, 1, HashFamily(seed=2), payload_size=PAYLOAD)
    report = z.throw(make_elems(6, 6, PAYLOAD), "random", Rng(3, ()))
    arrivals = 6
    for j in range(3):
        assert report.placed_per_table[j] + report.spills_per_table[j] == arrivals
        arrivals = report.spills_per_table[j]
    assert report.unplaced == arrivals
    assert report.failed == (report.unplaced > 0)


def test_throw_rejects_unknown_path_source():
    z = make_zht()
    with pytest.raises(InvalidParameterError):
        z.throw(make_elems(1, 1, PAYLOAD), "fixed", Rng(0, ()))


def test_prefix_fast_path_matches_bucket_scan():
    fam = HashFamily(seed=19)
    z_fast = Zht(16, 2, 3, fam, payload_size=PAYLOAD)
    z_scan = Zht(16, 2, 3, fam, payload_size=PAYLOAD)
    for tbl in z_scan.tables:
        tbl.invalidate_prefix()
    for key in range(24):
        path = z_fast.path(key)
        a = z_fast.zigzag_insert(Slot.real(key, pay(key)), path)
        b = z_scan.zigzag_insert(Slot.real(key, pay(key)), path)
        assert a == b
    for t_fast, t_scan in zip(z_fast.tables, z_scan.tables):
        assert np.array_equal(t_fast.key, t_scan.key)
        assert np.array_equal(t_fast.state, t_scan.state)
        assert np.array_equal(t_fast.payload, t_scan.payload)


def test_prefix_counter_invalidated_by_mutation():
    tbl = ZhtTable(4, 2, PAYLOAD)
    assert tbl.prefix_fill is not None
    tbl.put((0, 0), Slot.real(1, pay(1)))
    assert tbl.prefix_fill is None
    tbl2 = ZhtTable(4, 2, PAYLOAD)
    tbl2.clear_to_dummy(np.zeros((4, 2), dtype=bool))
    assert tbl2.prefix_fill is None


def test_full_load_prf_failure_rate_within_union_bound():
    n, k, c = 64, 2, 4
    bound = zigzag_failure_union_bound(n, k, c)
    assert 0 < bound < 1
    trials = 600
    fails = 0
    for t in range(trials):
        z = Zht(n, k, c, HashFamily(seed=12345, epoch=t), payload_size=PAYLOAD)
        elems = make_elems(n, n, PAYLOAD)
        fails += z.throw(elems, "prf", Rng(777, (t,))).failed
    assert fails / trials <= bound


def test_real_items_and_slot_array_roundtrip():
    z = make_zht(n=8, k=2, c=2)
    keys = [3, 9, 27]
    for key in keys:
        z.zigzag_insert(Slot.real(key, pay(key)), z.path(key))
    items = dict(z.real_items())
    assert sorted(items) == sorted(keys)
    assert all(items[k] == pay(k) for k in keys)
    flat = z.slot_array()
    assert flat.size == z.k * z.n * z.c
    assert flat.real_count() == len(keys)
    assert sorted(flat.key[flat.state == SlotState.REAL].tolist()) == sorted(keys)


def test_payload_width_must_match():
    z = make_zht()
    with pytest.raises(InvalidParameterError):
        z.zigzag_insert(Slot.real(1, b"xx"), z.path(1))
    with pytest.raises(InvalidParameterError):
        z.throw(SlotArray(4, payload_size=3), "random", Rng(0, ()))


# -- the (k, n, c) store against a scalar probe ---------------------------------


def _populated_zht(k: int, c: int, seed: int, probe: int, target: int) -> Zht:
    """A 16-bucket Zht with random residents and dummies, written per table.

    Every write goes through tables[j], so the store only sees them if the
    tables are views.  `probe` is placed in table `target` (-1: nowhere).
    """
    z = Zht(16, k, c, HashFamily(seed=seed), level_id=2, payload_size=PAYLOAD)
    gen = np.random.Generator(np.random.PCG64(seed))
    residents = gen.choice(1 << 20, size=gen.integers(0, 12 * k * c // 4 + 1),
                           replace=False) + 1
    for key in residents.tolist():
        if key == probe:
            continue
        j = int(gen.integers(k))
        b = z.path(key)[j]
        tbl = z.tables[j]
        free = np.flatnonzero(tbl.state[b] != SlotState.REAL)
        if free.size:
            s = int(free[0])
            tbl.key[b, s], tbl.state[b, s] = key, SlotState.REAL
            tbl.payload[b, s] = gen.integers(0, 256, PAYLOAD, dtype=np.uint8)
    for _ in range(int(gen.integers(0, 6))):
        j, b, s = int(gen.integers(k)), int(gen.integers(16)), int(gen.integers(c))
        if z.tables[j].state[b, s] != SlotState.REAL:
            z.tables[j].state[b, s] = SlotState.DUMMY
    if target >= 0:
        b = z.path(probe)[target]
        tbl = z.tables[target]
        tbl.key[b, c - 1], tbl.state[b, c - 1] = probe, SlotState.REAL
        tbl.payload[b, c - 1] = np.frombuffer(pay(probe), np.uint8)
    return z


def _scalar_probe(z: Zht, key: int, remove: bool, rec: TraceRecorder):
    """Table by table along path(key), one slot at a time."""
    found = None
    for j, b in enumerate(z.path(key)):
        rec.record(z.regions[j], b, TraceOp.READ_WRITE)
        tbl = z.tables[j]
        for s in range(z.c):
            if tbl.state[b, s] == SlotState.REAL and tbl.key[b, s] == key:
                found = tbl.payload[b, s].tobytes()
                if remove:
                    tbl.key[b, s], tbl.state[b, s] = KEY_SENTINEL, SlotState.DUMMY
                    tbl.tag[b, s], tbl.payload[b, s] = False, 0
    return found


def _store_bytes(z: Zht) -> tuple[bytes, ...]:
    st_ = z.store
    return tuple(a.tobytes() for a in (st_.key, st_.state, st_.tag, st_.payload))


@settings(max_examples=120, deadline=None)
@given(k=st.sampled_from([1, 2, 4]), c=st.sampled_from([1, 4]),
       remove=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_search_matches_scalar_probe(k, c, remove, seed, data):
    target = data.draw(st.integers(-1, k - 1), label="table holding the key")
    probe = 7
    got_z = _populated_zht(k, c, seed, probe, target)
    want_z = _populated_zht(k, c, seed, probe, target)
    got_rec, want_rec = TraceRecorder(), TraceRecorder()
    got = got_z.search(probe, remove=remove, recorder=got_rec)
    want = _scalar_probe(want_z, probe, remove, want_rec)
    assert (got is None) == (want is None) == (target < 0)
    if got is not None:
        assert got.key == probe and got.payload == want == pay(probe)
    assert _store_bytes(got_z) == _store_bytes(want_z)
    assert got_rec.events() == want_rec.events()
    for j, event in enumerate(got_rec.events()):
        assert event.region == got_z.regions[j]
        assert event.index == got_z.path(probe)[j]


def test_tables_are_views_of_the_store():
    z = make_zht(n=8, k=3, c=2)
    for j, tbl in enumerate(z.tables):
        for field in ("key", "state", "tag", "payload"):
            assert np.shares_memory(getattr(tbl, field), getattr(z.store, field)[j])
    key = 44
    b = z.path(key)[2]
    z.tables[2].key[b, 1] = key
    z.tables[2].state[b, 1] = SlotState.REAL
    z.tables[2].payload[b, 1] = np.frombuffer(pay(key), np.uint8)
    flat = z.slot_array()
    cell = (2 * z.n + b) * z.c + 1
    assert int(flat.key[cell]) == key and flat.payload[cell].tobytes() == pay(key)
    assert z.real_counts() == [0, 0, 1]
    assert z.real_items() == [(key, pay(key))]
    got = z.search(key, remove=True)
    assert got is not None and got.payload == pay(key)
    assert int(z.tables[2].state[b, 1]) == SlotState.DUMMY
    assert int(flat.state[cell]) == SlotState.DUMMY
