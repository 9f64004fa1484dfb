"""Zigzag hash tables: paths, insertion, constant-shape search, batch throw."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyramid_oram import zht
from pyramid_oram.analysis import zigzag_failure_union_bound
from pyramid_oram.core import (
    KEY_SENTINEL,
    HashFamily,
    InvalidParameterError,
    Rng,
    Slot,
    SlotArray,
    set_debug_checks,
)
from pyramid_oram.trace import TraceOp, TraceRecorder, region_table, shapes_equal
from pyramid_oram.zht import Zht

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
    assert z.search(key, recorder=rec) == pay(key)
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
    assert z.search(key, remove=True) == pay(key)
    assert sum(z.real_counts()) == 0
    assert z.search(key) is None
    # the vacated slot holds the sentinel key and a zero payload
    b = z.path(key)[0]
    assert z.tables[0].get((b, 0)) == Slot.dummy(PAYLOAD)


def test_search_detects_double_residency_in_debug(debug_checks):
    z = make_zht()
    key = 31
    z.zigzag_insert(Slot.real(key, pay(key)), z.path(key))
    # force a second copy into table 1 behind the structure's back
    b = z.path(key)[1]
    z.tables[1].key[b, 0] = key
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
    rec = TraceRecorder()
    report = z.throw(elems, "prf", Rng(11, ()), recorder=rec)
    assert report.unplaced == 0
    # the trace shows each real's hash path in its row
    recorded = rec.to_arrays()[1].reshape(12, 3)
    assert all(recorded[key].tolist() == z.path(key) for key in range(10))
    for key, _ in z.real_items():
        found = False
        for j, tbl in enumerate(z.tables):
            rows = np.argwhere(tbl.key == key)
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


def _blocked_throw(monkeypatch, block, m, source):
    """Store bytes, report, trace bytes and next word of one seeded throw."""
    monkeypatch.setattr(zht, "_BLOCK_ROWS", block)
    gen = np.random.Generator(np.random.PCG64(m))
    elems = SlotArray(m, PAYLOAD)
    rows = np.sort(gen.choice(m, m // 2, replace=False))
    elems.key[rows] = np.arange(rows.size, dtype=np.uint32)
    elems.payload[rows] = gen.integers(0, 256, (rows.size, PAYLOAD), np.uint8)
    z = make_zht(n=8, k=3, c=1)
    rng, rec = Rng(12, (m,)), TraceRecorder()
    report = z.throw(elems, source, rng, recorder=rec)
    trace = b"".join(column.tobytes() for column in rec.to_arrays())
    return _store_bytes(z), report, trace, rng.bits64()


@pytest.mark.parametrize("source", ["random", "prf"])
@pytest.mark.parametrize("m", [0, 6, 7, 8, 20])
def test_throw_is_independent_of_the_block_size(monkeypatch, source, m):
    # blocks of 1, 3 and 7 rows put m on both sides of a block edge; a block
    # larger than the input is the one-draw matrix
    want = _blocked_throw(monkeypatch, 1 << 20, m, source)
    for block in (1, 3, 7):
        assert _blocked_throw(monkeypatch, block, m, source) == want


def _throw_scratch(m: int) -> int:
    """Bytes a throw of 4096 reals among m slots allocates above its store."""
    z = Zht(4096, 4, 4, HashFamily(seed=3), payload_size=PAYLOAD)
    elems = make_elems(4096, m, PAYLOAD)
    rng = Rng(4, ())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z.throw(elems, "random", rng)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_throw_scratch_does_not_grow_with_the_dummies():
    # the path matrix is drawn in blocks and only the reals' rows are kept,
    # so the peak scratch is a block plus those rows at any input length
    assert abs(_throw_scratch(1 << 18) - _throw_scratch(1 << 16)) < 0.5e6


def test_throw_rejects_unknown_path_source():
    z = make_zht()
    with pytest.raises(InvalidParameterError):
        z.throw(make_elems(1, 1, PAYLOAD), "fixed", Rng(0, ()))


def _first_fit_reference(z: Zht, keys, payloads, paths, first_table: int):
    """One real at a time: the first non-real slot along its path, in slot order."""
    landed = []
    for key, payload, path in zip(keys, payloads, paths):
        landed.append(-1)
        for j, b in enumerate(path, start=first_table):
            free = [s for s in range(z.c) if not z.tables[j].get((b, s)).is_real]
            if free:
                z.tables[j].put((b, free[0]), Slot.real(int(key), payload))
                landed[-1] = j
                break
    return landed


@settings(max_examples=150, deadline=None)
@given(log_n=st.integers(1, 6), k=st.integers(1, 4), c=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_first_fit_matches_scalar_reference(log_n, k, c, seed, data):
    n = 1 << log_n
    gen = np.random.Generator(np.random.PCG64(seed))
    # enough distinct keys for the most residents plus the largest load
    keys = gen.permutation(1 << 20)[: (k + 3) * n * c + 1].tolist()
    pays = [pay(key) for key in keys]
    # both stores start with the same residents and the free slots that
    # removing some of them leaves behind
    z, ref = make_zht(n=n, k=k, c=c, seed=seed), make_zht(n=n, k=k, c=c, seed=seed)
    resident = data.draw(st.integers(0, k * n * c), label="residents")
    start = z.path_matrix(np.array(keys[:resident], dtype=np.uint64)).tolist()
    for store in (z, ref):
        _first_fit_reference(store, keys[:resident], pays[:resident], start, 0)
    for key in keys[:resident]:
        if gen.random() < 0.4:
            assert (z.search(key, remove=True) is None) == (
                ref.search(key, remove=True) is None)
    assert _store_bytes(z) == _store_bytes(ref)
    rest, rest_pays = keys[resident:], pays[resident:]

    load = data.draw(st.integers(0, 3 * n * c), label="load")
    if data.draw(st.booleans(), label="batch throw"):
        elems = SlotArray(load + 3, PAYLOAD)
        real = gen.permutation(load + 3)[:load]
        elems.key[real] = rest[:load]
        elems.payload[real] = np.frombuffer(b"".join(rest_pays[:load]), np.uint8
                                            ).reshape(load, PAYLOAD)
        source = data.draw(st.sampled_from(["random", "prf"]), label="paths")
        report = z.throw(elems, source, Rng(seed, (1,)))
        paths = Rng(seed, (1,)).buckets(n, (load + 3, k))
        real = np.sort(real)
        if source == "prf" and load:
            paths[real] = z.path_matrix(elems.key[real].astype(np.uint64))
        want = _first_fit_reference(ref, elems.key[real].tolist(),
                                    [elems.payload[r].tobytes() for r in real],
                                    paths[real].tolist(), 0)
        placed = [want.count(j) for j in range(k)]
        assert report.placed_per_table == placed
        assert report.unplaced == want.count(-1)
        assert report.spills_per_table == [
            want.count(-1) + sum(placed[j + 1:]) for j in range(k)]
    else:
        first = data.draw(st.integers(0, k - 1), label="first table")
        paths = gen.integers(0, n, size=(load, k - first)).tolist()
        want = _first_fit_reference(ref, rest[:load], rest_pays[:load], paths, first)
        got = [z.zigzag_insert(Slot.real(key, p), path, first_table=first)
               for key, p, path in zip(rest, rest_pays, paths)]
        assert got == [j >= 0 for j in want]
    assert _store_bytes(z) == _store_bytes(ref)


def test_insert_reclaims_a_removed_slot():
    z = Zht(2, 2, 1, HashFamily(seed=0), payload_size=PAYLOAD)
    b = z.path(1)[0]
    assert z.zigzag_insert(Slot.real(1, pay(1)), z.path(1))
    assert z.search(1, remove=True) == pay(1)
    # the slot key 1 left is free again, so key 2 lands in it, in table 0
    assert z.zigzag_insert(Slot.real(2, pay(2)), [b, 0])
    assert z.real_counts() == [1, 0]
    assert z.tables[0].get((b, 0)) == Slot.real(2, pay(2))
    with pytest.raises(InvalidParameterError):
        z.zigzag_insert(Slot.real(3, pay(3)), [0, 2])


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
    assert sorted(flat.key[flat.key != KEY_SENTINEL].tolist()) == sorted(keys)


def test_payload_width_must_match():
    z = make_zht()
    with pytest.raises(InvalidParameterError):
        z.zigzag_insert(Slot.real(1, b"xx"), z.path(1))
    with pytest.raises(InvalidParameterError):
        z.throw(SlotArray(4, payload_size=3), "random", Rng(0, ()))


# -- the (k, n, c) store against a scalar probe ---------------------------------


def _populated_zht(k: int, c: int, seed: int, probe: int, target: int) -> Zht:
    """A 16-bucket Zht with random residents, written per table.

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
        free = np.flatnonzero(tbl.key[b] == KEY_SENTINEL)
        if free.size:
            s = int(free[0])
            tbl.key[b, s] = key
            tbl.payload[b, s] = gen.integers(0, 256, PAYLOAD, dtype=np.uint8)
    if target >= 0:
        b = z.path(probe)[target]
        tbl = z.tables[target]
        tbl.key[b, c - 1] = probe
        tbl.payload[b, c - 1] = np.frombuffer(pay(probe), np.uint8)
    return z


def _scalar_probe(z: Zht, key: int, remove: bool, rec: TraceRecorder):
    """Table by table along path(key), one slot at a time."""
    found = None
    for j, b in enumerate(z.path(key)):
        rec.record(z.regions[j], b, TraceOp.READ_WRITE)
        tbl = z.tables[j]
        for s in range(z.c):
            if tbl.key[b, s] == key:
                found = tbl.payload[b, s].tobytes()
                if remove:
                    tbl.put((b, s), Slot.dummy(z.payload_size))
    return found


def _store_bytes(z: Zht) -> tuple[bytes, ...]:
    st_ = z.store
    return tuple(a.tobytes() for a in (st_.key, st_.payload))


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
        assert got == want == pay(probe)
    assert _store_bytes(got_z) == _store_bytes(want_z)
    assert got_rec.events() == want_rec.events()
    for j, event in enumerate(got_rec.events()):
        assert event.region == got_z.regions[j]
        assert event.index == got_z.path(probe)[j]


def test_tables_are_views_of_the_store():
    z = make_zht(n=8, k=3, c=2)
    for j, tbl in enumerate(z.tables):
        for field in ("key", "payload"):
            assert np.shares_memory(getattr(tbl, field), getattr(z.store, field)[j])
    key = 44
    b = z.path(key)[2]
    z.tables[2].key[b, 1] = key
    z.tables[2].payload[b, 1] = np.frombuffer(pay(key), np.uint8)
    flat = z.slot_array()
    cell = (2 * z.n + b) * z.c + 1
    assert int(flat.key[cell]) == key and flat.payload[cell].tobytes() == pay(key)
    assert z.real_counts() == [0, 0, 1]
    assert z.real_items() == [(key, pay(key))]
    assert z.search(key, remove=True) == pay(key)
    assert int(z.tables[2].key[b, 1]) == KEY_SENTINEL
    assert int(flat.key[cell]) == KEY_SENTINEL
