"""Routing network: stage schedule, repartition semantics, spill fairness."""

import tracemalloc

import numpy as np
import pytest

from pyramid_oram import prn
from pyramid_oram.core import (
    KEY_SENTINEL,
    HashFamily,
    InvalidParameterError,
    Rng,
    SlotArray,
)
from pyramid_oram.prn import (
    RoutingSlot,
    repartition,
    route,
    route_census,
    route_reference,
    stage_count,
    stage_pairs,
)
from pyramid_oram.oprim import sort_key
from pyramid_oram.trace import TraceRecorder
from pyramid_oram.zht import Zht

from conftest import make_routing_table, trace_pairs

# schedule for n=8, worked out by hand: stage s pairs indices differing
# in bit s-1, ascending by the lower index
STAGE_PAIRS_8 = {
    1: [[0, 1], [2, 3], [4, 5], [6, 7]],
    2: [[0, 2], [1, 3], [4, 6], [5, 7]],
    3: [[0, 4], [1, 5], [2, 6], [3, 7]],
}


def test_stage_count():
    assert stage_count(2) == 1
    assert stage_count(8) == 3
    assert stage_count(1024) == 10
    with pytest.raises(InvalidParameterError):
        stage_count(12)


def test_stage_pairs_frozen_for_n8():
    for stage, pairs in STAGE_PAIRS_8.items():
        assert stage_pairs(8, stage).tolist() == pairs


def test_stage_pairs_cover_every_bucket_once():
    for n in (4, 16, 64):
        for stage in range(1, stage_count(n) + 1):
            pairs = stage_pairs(n, stage)
            assert pairs.shape == (n // 2, 2)
            flat = [b for pair in pairs for b in pair]
            assert sorted(flat) == list(range(n))
            for lo, hi in pairs:
                assert hi == lo ^ (1 << (stage - 1))


def test_stage_pairs_range_checked():
    with pytest.raises(InvalidParameterError):
        stage_pairs(8, 0)
    with pytest.raises(InvalidParameterError):
        stage_pairs(8, 4)


def _rslot(key: int, tag: bool, dest: int) -> RoutingSlot:
    return RoutingSlot(key, bytes([key % 251] * 8), dest, tag)


def _dummy_rslot() -> RoutingSlot:
    return RoutingSlot(KEY_SENTINEL, bytes(8), 0, False)


def _key_dests(table, dests: np.ndarray) -> dict[int, int]:
    """Each real key's destination bucket, read off a table before a route."""
    real = table.key != KEY_SENTINEL
    return dict(zip(table.key[real].tolist(), dests[real].tolist()))


def _off_dest(table, key_dests: dict[int, int]) -> np.ndarray:
    """After a route, the real slots outside the bucket their key was mapped
    to by _key_dests: what a route must report as spilled."""
    n, c = table.shape
    mapped = np.array([key_dests.get(key, -1) for key in table.key.ravel().tolist()])
    return (table.key != KEY_SENTINEL) & (mapped.reshape(n, c) != np.arange(n)[:, None])


def _stages(tag, dest, rng, slot=None):
    """The stage kernel that route() and route_census() share, run on a
    batch's tags, destinations and, unless None, slot ids: the tags (and
    slot ids) after the last stage, then the spills and live tags."""
    n = tag.shape[1]
    word, spills, live = prn._run_stages(prn._pack(tag, dest, slot), rng)
    out = [(word & 1).astype(bool)]
    if slot is not None:
        out.append(prn._unpack_slot(word, n))
    return (*out, spills, live)


def _carried(a: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """A batch's (batch, n, c) entries, each moved to where the stage kernel
    carried its slot id."""
    batch = a.shape[0]
    flat = np.take_along_axis(a.reshape(batch, -1), slot.reshape(batch, -1), axis=1)
    return flat.reshape(a.shape)


def test_repartition_moves_tagged_to_matching_side():
    # two tagged slots, one per side; both should land on their side
    a = [_rslot(1, True, 0b10), _dummy_rslot()]
    b = [_rslot(2, True, 0b01), _dummy_rslot()]
    new_a, new_b, spills = repartition(a, b, 1, Rng(3, ()))
    assert spills == 0
    keys_a = {rs.key for rs in new_a if rs.key != KEY_SENTINEL}
    keys_b = {rs.key for rs in new_b if rs.key != KEY_SENTINEL}
    assert keys_a == {1} and keys_b == {2}
    assert all(rs.tag for rs in new_a + new_b if rs.key != KEY_SENTINEL)


def test_repartition_conserves_slots():
    rng = Rng(9, ())
    a = [_rslot(1, True, 3), _rslot(2, True, 1)]
    b = [_rslot(3, True, 0), _dummy_rslot()]
    new_a, new_b, _ = repartition(a, b, 2, rng)
    before = sorted(rs.key for rs in a + b if rs.key != KEY_SENTINEL)
    after = sorted(rs.key for rs in new_a + new_b if rs.key != KEY_SENTINEL)
    assert before == after


def test_repartition_spills_only_on_overflow():
    # three tagged slots want side 0 of a c=2 pair: exactly one must spill
    a = [_rslot(1, True, 0), _rslot(2, True, 0)]
    b = [_rslot(3, True, 0), _dummy_rslot()]
    new_a, new_b, spills = repartition(a, b, 1, Rng(4, ()))
    assert spills == 1
    tagged = [rs for rs in new_a + new_b if rs.tag]
    assert len(tagged) == 2
    assert all(rs for rs in new_a if rs.key != KEY_SENTINEL)


def test_repartition_untagged_never_spill():
    a = [_dummy_rslot(), _dummy_rslot()]
    b = [_dummy_rslot(), _dummy_rslot()]
    _, _, spills = repartition(a, b, 1, Rng(5, ()))
    assert spills == 0


def test_repartition_validates_args():
    with pytest.raises(InvalidParameterError):
        repartition([_dummy_rslot()], [], 1, Rng(0, ()))
    with pytest.raises(InvalidParameterError):
        repartition([_dummy_rslot()], [_dummy_rslot()], 0, Rng(0, ()))


def test_spill_fairness_among_competitors():
    # n=2, c=2: keys 1..3 all want bucket 0; one of three must spill, and the
    # victim should be uniform among them (tiebreaks decide)
    trials = 30_000
    spill_counts = {1: 0, 2: 0, 3: 0}
    for trial in range(trials):
        a = [_rslot(1, True, 0), _rslot(2, True, 0)]
        b = [_rslot(3, True, 0), _dummy_rslot()]
        new_a, new_b, spills = repartition(a, b, 1, Rng(7, (trial,)))
        assert spills == 1
        for rs in new_a + new_b:
            if rs.key != KEY_SENTINEL and not rs.tag:
                spill_counts[rs.key] += 1
    for key, count in spill_counts.items():
        assert abs(count / trials - 1 / 3) < 0.02, (key, count)


def test_route_places_every_surviving_tag():
    for n, c, load, seed in ((8, 2, 10, 1), (16, 4, 40, 2), (64, 3, 100, 3)):
        table, dests = make_routing_table(n, c, load, seed)
        keys_before = sorted(table.key[table.key != KEY_SENTINEL].tolist())
        key_dests = _key_dests(table, dests)
        stats = route(table, dests, Rng(seed, (1,)))
        assert stats.repartitions == (n // 2) * stage_count(n)
        keys_after = sorted(table.key[table.key != KEY_SENTINEL].tolist())
        assert keys_before == keys_after, "routing must not lose slots"
        assert np.array_equal(stats.spilled, _off_dest(table, key_dests))
        assert int(stats.spilled.sum()) == stats.total_spilled


def test_route_stats_live_counts_decrease_by_spills():
    table, dests = make_routing_table(32, 2, 40, 11)
    key_dests = _key_dests(table, dests)
    stats = route(table, dests, Rng(11, (2,)))
    for s in range(len(stats.stage_live) - 1):
        assert stats.stage_live[s + 1] == stats.stage_live[s] - stats.stage_spills[s]
    arrived = (table.key != KEY_SENTINEL) & ~_off_dest(table, key_dests)
    assert int(arrived.sum()) == stats.stage_live[-1] - stats.stage_spills[-1]


def test_route_light_load_never_spills():
    # a single real slot can never lose a competition
    table, dests = make_routing_table(16, 2, 1, 21)
    key_dests = _key_dests(table, dests)
    stats = route(table, dests, Rng(21, (0,)))
    assert stats.total_spilled == 0 and not stats.spilled.any()
    assert not _off_dest(table, key_dests).any()
    assert int(np.count_nonzero(table.key != KEY_SENTINEL)) == 1


def test_route_single_survivor_when_all_want_bucket_zero():
    # n=4, c=1: four slots all want bucket 0; capacity one means exactly one
    # survivor, sitting in bucket 0
    for seed in range(50):
        table, _ = make_routing_table(4, 1, 4, seed)
        dests = np.zeros((4, 1), dtype=np.int64)
        stats = route(table, dests, Rng(seed, (3,)))
        assert stats.total_spilled == 3
        assert stats.spilled[:, 0].tolist() == [False, True, True, True]


def test_route_matches_reference_bit_for_bit():
    # includes c=3, whose 6-word rows the kernel sorts at their own width
    # and only the reference pads to 8, n=1, a table with no stage, and n=2,
    # whose one stage is the last: between stages a route moves its words a
    # bucket of c words at a time
    for n, c, load, seed in ((8, 2, 10, 5), (16, 4, 30, 6), (64, 3, 120, 7),
                             (1, 3, 2, 8), (2, 1, 2, 9), (2, 3, 5, 10),
                             (4, 1, 3, 11), (4, 3, 10, 12)):
        t_vec, d_vec = make_routing_table(n, c, load, seed)
        t_ref, d_ref = make_routing_table(n, c, load, seed)
        rec_vec = TraceRecorder()
        rec_ref = TraceRecorder()
        s_vec = route(t_vec, d_vec, Rng(seed, (9,)), recorder=rec_vec, region=77)
        s_ref = route_reference(t_ref, d_ref, Rng(seed, (9,)),
                                recorder=rec_ref, region=77)
        assert np.array_equal(t_vec.key, t_ref.key)
        assert np.array_equal(t_vec.payload, t_ref.payload)
        assert np.array_equal(s_vec.spilled, s_ref.spilled)
        assert s_vec.stage_spills == s_ref.stage_spills
        assert s_vec.stage_live == s_ref.stage_live
        assert s_vec.repartitions == s_ref.repartitions
        assert trace_pairs(rec_vec) == trace_pairs(rec_ref)


def test_route_matches_reference_over_eight_stages():
    # n=256 runs every relayout between stage orders from pairs of adjacent
    # buckets to pairs 128 apart; at c=5 and c=6 the kernel sorts each pair's
    # 10 and 12 words at their own width, and only the reference pads to 16
    for c, seed in ((4, 21), (5, 22), (6, 23)):
        load = 256 * c * 3 // 4
        t_vec, d_vec = make_routing_table(256, c, load, seed)
        t_ref, d_ref = make_routing_table(256, c, load, seed)
        s_vec = route(t_vec, d_vec, Rng(seed, (9,)))
        s_ref = route_reference(t_ref, d_ref, Rng(seed, (9,)))
        assert t_vec.key.tobytes() == t_ref.key.tobytes()
        assert t_vec.payload.tobytes() == t_ref.payload.tobytes()
        assert np.array_equal(s_vec.spilled, s_ref.spilled)
        assert s_vec == s_ref
        assert s_vec.total_spilled > 0, "no slot spilled"


class _CollidingRng(Rng):
    """Rng whose 64-bit words come from a pool of three, so tiebreaks collide.

    Each word is still one draw of the underlying stream, so drawing a block
    at once or pair by pair gives the same words, as with Rng.
    """

    POOL = np.array([0, 1 << 63, (1 << 64) - 1], dtype=np.uint64)

    def bits64(self, size=None):
        return self.POOL[super().bits64(size) % np.uint64(len(self.POOL))]


def test_route_matches_reference_when_tiebreaks_collide():
    # the reference pads each c=3 pair to 8 wires, and tiebreak 1 << 63 ties
    # a floating slot with its pad key; the kernel sorts the 6 words alone
    for n, c in ((8, 2), (16, 3), (16, 4)):
        for seed in range(20):
            load = seed * n * c // 20
            t_vec, d_vec = make_routing_table(n, c, load, seed)
            t_ref, d_ref = make_routing_table(n, c, load, seed)
            s_vec = route(t_vec, d_vec, _CollidingRng(seed, (3,)))
            s_ref = route_reference(t_ref, d_ref, _CollidingRng(seed, (3,)))
            assert t_vec.key.tobytes() == t_ref.key.tobytes()
            assert t_vec.payload.tobytes() == t_ref.payload.tobytes()
            assert np.array_equal(s_vec.spilled, s_ref.spilled)
            assert s_vec.stage_spills == s_ref.stage_spills
            assert s_vec.stage_live == s_ref.stage_live


@pytest.mark.parametrize("rng_class", [Rng, _CollidingRng])
def test_spilled_is_the_reals_off_their_mapped_bucket(rng_class):
    # ozht re-throws what a route reports spilled: it must be exactly the
    # reals that end outside the bucket their key was mapped to before the
    # route, at half and at full load, by both routes, with dests unchanged
    spilled = 0
    for n in (2, 8, 64):
        for c in (1, 2, 3, 4):
            for load in (n * c // 2, n * c):
                seed = 1000 * n + 10 * c + (load == n * c)
                stats = []
                for route_fn in (route, route_reference):
                    table, dests = make_routing_table(n, c, load, seed)
                    start, key_dests = dests.copy(), _key_dests(table, dests)
                    got = route_fn(table, dests, rng_class(seed, (7,)))
                    assert np.array_equal(dests, start)
                    assert got.spilled.dtype == bool and got.spilled.shape == (n, c)
                    assert np.array_equal(got.spilled, _off_dest(table, key_dests)), \
                        (route_fn.__name__, n, c, load)
                    stats.append(got)
                assert stats[0] == stats[1]
                spilled += int(stats[0].spilled.sum())
    assert spilled > 0, "no slot spilled"


def test_route_refuses_a_dummy_with_payload_bytes_under_debug_checks(debug_checks):
    # route() copies a dummy's payload row only into a cell a real left, so
    # it needs every dummy row zero, as the store keeps them
    table, dests = make_routing_table(8, 2, 6, 1)
    dummy = np.argwhere(table.key == KEY_SENTINEL)[0]
    table.payload[tuple(dummy)][3] = 1
    before = [a.copy() for a in (table.key, table.payload, dests)]
    with pytest.raises(InvalidParameterError, match="dummy"):
        route(table, dests, Rng(1, ()))
    for now, then in zip((table.key, table.payload, dests), before):
        assert np.array_equal(now, then)


def test_route_writes_no_dummy_row_that_no_real_lands_on():
    # with the debug check off, a marker byte in a dummy row shows whether
    # route() wrote it: the row no real leaves or reaches keeps it, and
    # every real's row is where route_reference puts it
    n, c, load, seed = 16, 4, 20, 4
    t_vec, d_vec = make_routing_table(n, c, load, seed)
    t_ref, d_ref = make_routing_table(n, c, load, seed)
    route_reference(t_ref, d_ref, Rng(seed, (5,)))
    untouched = np.argwhere((t_vec.key == KEY_SENTINEL)
                            & (t_ref.key == KEY_SENTINEL))
    assert len(untouched), "every dummy cell received a real"
    marked = tuple(untouched[len(untouched) // 2])
    t_vec.payload[marked][0] = 0xA5
    route(t_vec, d_vec, Rng(seed, (5,)))
    assert t_vec.key.tobytes() == t_ref.key.tobytes()
    assert t_vec.payload[marked][0] == 0xA5
    real = t_ref.key != KEY_SENTINEL
    assert np.array_equal(t_vec.payload[real], t_ref.payload[real])


def test_stage_kernel_keeps_exactly_the_tagged_slots_at_their_dest():
    # route() reports the reals whose tags the network cleared as spilled,
    # and ozht re-throws them as the reals off their destination bucket;
    # those agree iff a slot ends tagged exactly when it started tagged and
    # arrived
    batch, spilled = 3, 0
    for n in (2, 4, 16, 64):
        for c in (1, 2, 3, 4):
            for rng_class in (Rng, _CollidingRng):
                gen = np.random.Generator(np.random.PCG64(100 * n + c))
                tag_in = gen.random((batch, n, c)) < 0.7
                dest_in = gen.integers(0, n, size=(batch, n, c)).astype(np.int64)
                ids = np.tile(np.arange(n * c).reshape(1, n, c), (batch, 1, 1))
                tag, slot, spills, _ = _stages(
                    tag_in, dest_in, rng_class(n, (c,)), ids)
                spilled += int(spills.sum())
                at_dest = _carried(dest_in, slot) == np.arange(n)[None, :, None]
                assert np.array_equal(tag, _carried(tag_in, slot) & at_dest), (n, c)
    assert spilled > 0, "no slot ever spilled"


def test_route_trace_is_pair_schedule():
    n, c = 8, 2
    table, dests = make_routing_table(n, c, 5, 31)
    rec = TraceRecorder()
    route(table, dests, Rng(31, (4,)), recorder=rec, region=42)
    assert len(rec) == 2 * (n // 2) * stage_count(n)
    want = []
    for stage in (1, 2, 3):
        for lo, hi in STAGE_PAIRS_8[stage]:
            want.extend([(42, lo), (42, hi)])
    assert trace_pairs(rec) == want


def test_route_rejects_bad_dest_shape():
    for route_fn in (route, route_reference):
        table, _ = make_routing_table(8, 2, 4, 1)
        with pytest.raises(InvalidParameterError):
            route_fn(table, np.zeros((8, 3), dtype=np.int64), Rng(1, ()))
        # a table is (n, c) slots with n a power of two and c >= 1
        route_fn(table, np.zeros((8, 2), dtype=np.int64), Rng(1, ()))
        for shape in ((6, 2), (8, 0), (8,)):
            with pytest.raises(InvalidParameterError):
                route_fn(SlotArray(shape, 1), np.zeros(shape, dtype=np.int64),
                         Rng(1, ()))


def test_route_census_matches_route():
    n, c, load, seed = 16, 2, 20, 13
    table, dests = make_routing_table(n, c, load, seed)
    tag0 = (table.key != KEY_SENTINEL)[None, ...]
    dest0 = dests.copy()[None, ...]
    tag, spills_k, live_k = _stages(tag0, dest0, Rng(seed, (5,)))
    stats = route(table, dests, Rng(seed, (5,)))
    spills, live = route_census(tag0, dest0, Rng(seed, (5,)))
    assert spills[0].tolist() == stats.stage_spills == spills_k[0].tolist()
    assert live[0].tolist() == stats.stage_live == live_k[0].tolist()
    # the kernel's surviving tags are the reals route() does not report
    assert np.array_equal(tag[0], (table.key != KEY_SENTINEL) & ~stats.spilled)


def test_route_census_batched_invariants():
    trials, n, c = 8, 32, 2
    gen = np.random.Generator(np.random.PCG64(99))
    tag = gen.random((trials, n, c)) < 0.6
    dest = gen.integers(0, n, size=(trials, n, c)).astype(np.int64)
    start = tag.sum(axis=(1, 2))
    spills, live = route_census(tag, dest, Rng(99, (6,)))
    assert np.array_equal(live[:, 0], start)
    for s in range(live.shape[1] - 1):
        assert np.array_equal(live[:, s + 1], live[:, s] - spills[:, s])
    # every surviving tag of the shared kernel sits in its destination bucket
    ids = np.tile(np.arange(n * c).reshape(1, n, c), (trials, 1, 1))
    tag, slot, *counts = _stages(tag, dest, Rng(99, (6,)), ids)
    assert all(np.array_equal(a, b) for a, b in zip(counts, (spills, live)))
    buckets = np.broadcast_to(np.arange(n)[None, :, None], tag.shape)
    assert (_carried(dest, slot)[tag] == buckets[tag]).all()


def test_route_of_a_store_row_matches_a_standalone_copy():
    n, c, payload = 16, 3, 8
    z = Zht(n, 3, c, HashFamily(5), payload_size=payload)
    gen = np.random.Generator(np.random.PCG64(5))
    keys = gen.integers(0, KEY_SENTINEL, size=(3, n, c), dtype=np.uint32)
    # non-real slots carry the sentinel key
    z.store.key[...] = np.where(gen.random((3, n, c)) < 0.7, keys, KEY_SENTINEL)
    z.store.payload[...] = gen.integers(0, 256, size=(3, n, c, payload))
    before = [field.copy() for field in (z.store.key, z.store.payload)]
    reals = int(np.count_nonzero(before[0][1] != KEY_SENTINEL))

    copy = SlotArray((n, c), payload)
    row = z.tables[1]
    for name in ("key", "payload"):
        getattr(copy, name)[...] = getattr(row, name)
    dests = gen.integers(0, n, size=(n, c)).astype(np.int64)
    dests_start, key_dests = dests.copy(), _key_dests(row, dests)
    s_row = route(row, dests, Rng(5, (1,)))
    s_copy = route(copy, dests, Rng(5, (1,)))

    assert s_row == s_copy and s_row.total_spilled < reals
    assert np.array_equal(s_row.spilled, s_copy.spilled)
    for name, old in zip(("key", "payload"), before):
        field = getattr(z.store, name)
        assert np.array_equal(field[1], getattr(copy, name)), name
        assert np.array_equal(field[0], old[0]), f"row 0 {name} touched"
        assert np.array_equal(field[2], old[2]), f"row 2 {name} touched"
    assert not np.array_equal(z.store.key[1], before[0][1]), "row 1 not routed"
    # the caller's dests array is only read
    assert np.array_equal(dests, dests_start)
    assert np.array_equal(s_row.spilled, _off_dest(row, key_dests))


def test_route_census_rejects_bad_input():
    tag = np.zeros((2, 8, 2), dtype=bool)
    dest = np.zeros((2, 8, 2), dtype=np.int64)
    with pytest.raises(InvalidParameterError):
        route_census(tag[0], dest[0], Rng(0, ()))          # not (batch, n, c)
    with pytest.raises(InvalidParameterError):
        route_census(tag, dest[:, :, :1], Rng(0, ()))      # shapes differ
    with pytest.raises(InvalidParameterError):
        route_census(tag.astype(np.int64), dest, Rng(0, ()))
    with pytest.raises(InvalidParameterError, match="power of two"):
        route_census(tag[:, :6], dest[:, :6], Rng(0, ()))  # n = 6 buckets
    for name in ("tag", "dest"):  # a list in place of an array
        args = {"tag": tag, "dest": dest, name: dest.tolist()}
        with pytest.raises(InvalidParameterError, match="numpy arrays"):
            route_census(rng=Rng(0, ()), **args)
    for bad in (8, 99, -1):
        out = dest.copy()
        out[1, 3, 1] = bad
        with pytest.raises(InvalidParameterError):
            route_census(tag, out, Rng(0, ()))


@pytest.mark.parametrize("route_fn", [route, route_reference])
def test_route_and_reference_check_dests(route_fn):
    # any integer array in range is read, never written, and routes as its
    # int64 copy does; an out-of-range, float or list one is refused before
    # the table is touched
    table, dests = make_routing_table(8, 2, 6, 1)
    before = table.key.copy()
    out_of_range = [dests.copy(), dests.copy()]
    out_of_range[0][2, 0], out_of_range[1][5, 1] = 99, -1
    for bad in (*out_of_range, dests.astype(np.float64), dests.tolist()):
        with pytest.raises(InvalidParameterError):
            route_fn(table, bad, Rng(1, ()))
    assert np.array_equal(table.key, before)
    want, _ = make_routing_table(8, 2, 6, 1)
    s_want = route_fn(want, dests, Rng(1, ()))
    for kind in (np.int32, np.uint8, np.uint64):
        t_kind, _ = make_routing_table(8, 2, 6, 1)
        d_kind = dests.astype(kind)
        s_kind = route_fn(t_kind, d_kind, Rng(1, ()))
        assert np.array_equal(d_kind, dests.astype(kind)), kind
        assert t_kind.key.tobytes() == want.key.tobytes(), kind
        assert s_kind == s_want and np.array_equal(s_kind.spilled, s_want.spilled)


def test_route_census_reads_its_arguments_and_counts_as_route():
    # the census writes neither argument, a strided view included, and each
    # table's counts are those route() reports for that table alone
    trials, n, c = 4, 16, 2
    gen = np.random.Generator(np.random.PCG64(17))
    tag_base = gen.random((trials, n, 2 * c)) < 0.7
    dest_base = gen.integers(0, n, size=(trials, n, 2 * c)).astype(np.int64)
    before = tag_base.copy(), dest_base.copy()
    tag, dest = tag_base[:, :, ::2], dest_base[:, :, ::2]
    assert not tag.flags.c_contiguous and not dest.flags.c_contiguous
    rng = _RecordingRng(17, (1,))
    got = route_census(tag, dest, rng)
    want = route_census(tag.copy(), dest.copy(), Rng(17, (1,)))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(tag_base, before[0])
    assert np.array_equal(dest_base, before[1])
    spills, live = got
    assert spills.sum() > 0, "no slot spilled"
    for b in range(trials):
        table = SlotArray((n, c), 1)
        table.key[tag[b]] = np.arange(np.count_nonzero(tag[b]))
        mine = [block.reshape(trials, n // 2, 2 * c)[b] for block in rng.blocks]
        stats = route(table, dest[b].copy(), _ReplayRng(mine))
        assert stats.stage_spills == spills[b].tolist()
        assert stats.stage_live == live[b].tolist()


class _RecordingRng(Rng):
    """Rng that keeps a copy of every block of words it draws."""

    def __init__(self, seed, path=()):
        super().__init__(seed, path)
        self.blocks = []

    def bits64(self, size=None):
        words = super().bits64(size)
        self.blocks.append(words.copy())
        return words


class _ReplayRng(Rng):
    """Rng that hands out the given blocks of words, one per draw."""

    def __init__(self, blocks):
        super().__init__(0)
        self.blocks = list(blocks)

    def bits64(self, size=None):
        words = self.blocks.pop(0)
        assert words.size == np.prod(size)
        return words.reshape(size).copy()


class _CollidingRecordingRng(_RecordingRng, _CollidingRng):
    """_CollidingRng that keeps a copy of every block of words it draws."""


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_route_census_matches_reference_when_tiebreaks_collide(c):
    # the batched census under tiebreaks from a pool of three, at every
    # stage sort the store uses: the network at m = 2 and 4, the row sort at
    # m = 6 and 8.  Given its rows of every stage's draw, pair by pair, each
    # table's spills and live tags are those route_reference finds on it
    batch, n = 4, 16
    gen = np.random.Generator(np.random.PCG64(60 + c))
    tag = gen.random((batch, n, c)) < 0.8
    dest = gen.integers(0, n, size=(batch, n, c))
    rng = _CollidingRecordingRng(c, (5,))
    spills, live = route_census(tag, dest, rng)
    assert spills.sum() > 0, "no slot spilled"
    for b in range(batch):
        table = SlotArray((n, c), 1)
        table.key[tag[b]] = np.arange(np.count_nonzero(tag[b]))
        pairs = [row for block in rng.blocks
                 for row in block.reshape(batch, n // 2, 2 * c)[b]]
        stats = route_reference(table, dest[b].astype(np.int64), _ReplayRng(pairs))
        assert stats.stage_spills == spills[b].tolist(), (c, b)
        assert stats.stage_live == live[b].tolist(), (c, b)


@pytest.mark.parametrize("kind", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_stage_key_is_sort_key_of_class_and_tiebreak(kind):
    # the kernel builds each word's class word by shifts.  At every stage
    # bit a word of this type can hold, over every (tag, destination bit)
    # pair and random bits everywhere else (the other destination bits, slot
    # ids), its key must be sort_key(class, tiebreak) bit for bit: class 1
    # untagged, 0 or 2 tagged for side 0 or 1
    bits = np.iinfo(kind).bits
    gen = np.random.Generator(np.random.PCG64(bits))
    for bit in range(bits - 1):
        word = gen.integers(0, np.iinfo(kind).max, size=(64, 4), dtype=kind,
                            endpoint=True)
        tag, side = (word & 1).astype(np.uint64), (word >> (bit + 1)) & 1
        assert len(set(zip(tag.ravel().tolist(), side.ravel().tolist()))) == 4
        scratch = (np.empty_like(word), np.empty_like(word),
                   np.empty(word.shape, dtype=np.uint64))
        key = prn._stage_key(word, bit, Rng(bit), *scratch)
        klass = np.where(tag == 1, 2 * side.astype(np.uint64), 1).astype(np.uint64)
        want = sort_key(klass, Rng(bit).bits64(word.shape))
        assert key.dtype == np.uint64 and np.array_equal(key, want), bit


def test_route_census_batch_with_slot_ids_matches_single_routes():
    # each table of a batch is routed on its own rows of every stage's draw:
    # given those words, route() of the table moves its slots to where the
    # batched stage kernel carried their slot ids, with the same tags, dests
    # and spills
    batch, n, c = 3, 16, 3
    tables = [make_routing_table(n, c, 14 + 9 * b, 40 + b) for b in range(batch)]
    tag = np.stack([t.key != KEY_SENTINEL for t, _ in tables])
    dest = np.stack([d.copy() for _, d in tables])
    ids = np.tile(np.arange(n * c).reshape(1, n, c), (batch, 1, 1))
    rng = _RecordingRng(8, (1,))
    tag, slot, spills, live = _stages(tag, dest, rng, ids)
    assert spills.dtype == np.int64 and live.dtype == np.int64
    assert len(rng.blocks) == stage_count(n)
    for b, (table, dests) in enumerate(tables):
        key, payload = table.key.copy(), table.payload.copy()
        mine = [block.reshape(batch, n // 2, 2 * c)[b] for block in rng.blocks]
        stats = route(table, dests, _ReplayRng(mine))
        assert stats.stage_spills == spills[b].tolist()
        assert stats.stage_live == live[b].tolist()
        assert np.array_equal(dests, dest[b])
        assert np.array_equal(table.key, key.reshape(-1)[slot[b]])
        assert np.array_equal(table.payload, payload.reshape(n * c, -1)[slot[b]])
        assert np.array_equal(tag[b], (table.key != KEY_SENTINEL) & ~stats.spilled)
    assert spills.sum() > 0, "no slot spilled"


def test_route_census_refuses_float_dests():
    # a float dest is refused, integral or not: 2.7 would be routed as 2
    batch, n, c = 2, 4, 2
    gen = np.random.Generator(np.random.PCG64(4))
    tag = gen.random((batch, n, c)) < 0.6
    dest = gen.integers(0, n, size=(batch, n, c)).astype(np.int64)
    bad_dests = [dest.astype(np.float64), dest.astype(np.float64)]
    bad_dests[1][0, 1, 0] = 2.7
    for bad in bad_dests:
        with pytest.raises(InvalidParameterError, match="integers"):
            route_census(tag, bad, Rng(0, ()))


def test_route_with_words_wider_than_32_bits():
    # n=65536, c=1: tag, 16 destination bits and 16 slot-id bits need a
    # 64-bit word; the stage kernel on the same tags and dests, without slot
    # ids, runs on 32-bit words and must agree with it, as must the census
    n, c = 1 << 16, 1
    table, dests = make_routing_table(n, c, n // 2, 3)
    tag = (table.key != KEY_SENTINEL)[None]
    dest = dests[None].copy()
    assert prn._pack(tag, dest, None).dtype == np.uint32
    reals = set(table.key[table.key != KEY_SENTINEL].tolist())
    key_dests = _key_dests(table, dests)
    spills, live = route_census(tag, dest, Rng(3, (2,)))
    tag, *_ = _stages(tag, dest, Rng(3, (2,)))
    stats = route(table, dests, Rng(3, (2,)))
    assert stats.stage_spills == spills[0].tolist()
    assert stats.stage_live == live[0].tolist()
    assert np.array_equal(dests, dest[0])
    assert np.array_equal(tag[0], (table.key != KEY_SENTINEL) & ~stats.spilled)
    assert np.array_equal(stats.spilled, _off_dest(table, key_dests))
    assert set(table.key[table.key != KEY_SENTINEL].tolist()) == reals
    # every key still carries its own payload
    moved = table.key != KEY_SENTINEL
    assert np.array_equal(table.payload[moved][:, 0], table.key[moved] % 251)


def test_route_census_of_an_empty_batch_or_one_bucket():
    # an empty batch has no rows to sort, nor has n=1, which has no stages
    for batch, n, stages in ((0, 8, 3), (3, 1, 0)):
        tag = np.zeros((batch, n, 2), dtype=bool)
        dest = np.zeros((batch, n, 2), dtype=np.int64)
        spills, live = route_census(tag, dest, Rng(0))
        for counts in (spills, live):
            assert counts.dtype == np.int64 and counts.shape == (batch, stages)


# row blocks of 1, 3 and 5 divide neither a table's rows nor a batch's, so
# blocks straddle pairs' tables and a stage's last block is short; the
# kernel bounds blocks by words, so a test sets rows * 2c of them
ODD_BLOCKS = (1, 3, 5)


@pytest.mark.parametrize("block", ODD_BLOCKS)
@pytest.mark.parametrize("c", [4, 5])
def test_route_matches_reference_in_any_row_block(monkeypatch, block, c):
    # each block draws its own tiebreaks, in row order: the words of one
    # draw per stage, so the blocks change nothing the reference sees
    n = 64
    monkeypatch.setattr(prn, "_BLOCK_WORDS", block * 2 * c)
    t_vec, d_vec = make_routing_table(n, c, n * c * 3 // 4, block)
    t_ref, d_ref = make_routing_table(n, c, n * c * 3 // 4, block)
    s_vec = route(t_vec, d_vec, Rng(block, (c,)))
    s_ref = route_reference(t_ref, d_ref, Rng(block, (c,)))
    assert t_vec.key.tobytes() == t_ref.key.tobytes()
    assert t_vec.payload.tobytes() == t_ref.payload.tobytes()
    assert np.array_equal(s_vec.spilled, s_ref.spilled)
    assert s_vec == s_ref
    assert s_vec.total_spilled > 0, "no slot spilled"


def _census_in_blocks(monkeypatch, block):
    batch, n, c = 3, 16, 3
    if block is not None:
        monkeypatch.setattr(prn, "_BLOCK_WORDS", block * 2 * c)
    gen = np.random.Generator(np.random.PCG64(12))
    tag = gen.random((batch, n, c)) < 0.8
    dest = gen.integers(0, n, size=(batch, n, c))
    slot = np.tile(np.arange(n * c).reshape(1, n, c), (batch, 1, 1))
    return _stages(tag, dest, Rng(12, (4,)), slot)


@pytest.mark.parametrize("block", ODD_BLOCKS)
def test_route_census_is_independent_of_the_row_block(monkeypatch, block):
    # a table has 8 rows per stage here: blocks of 3 and 5 rows straddle
    # tables, and the spills and live tags are still counted per table
    want = _census_in_blocks(monkeypatch, None)
    got = _census_in_blocks(monkeypatch, block)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert want[2].sum() > 0, "no slot spilled"
    assert not (want[2] == want[2][:1]).all(), "every table spilled alike"


def test_stage_blocks_are_bounded_by_words():
    # a block holds at most _BLOCK_WORDS words: a store route (c = 4) draws
    # one 8192-row block per stage, the spill census (c = 2) four blocks of
    # 16384 rows, which are the words of one draw per stage
    n, c = 1 << 14, 4
    table, dests = make_routing_table(n, c, n * c // 2, 5)
    rng = _RecordingRng(5, (1,))
    route(table, dests, rng)
    assert [b.shape for b in rng.blocks] == [(8192, 8)] * stage_count(n)
    trials, n, c = 512, 256, 2
    gen = np.random.Generator(np.random.PCG64(5))
    tag = gen.random((trials, n, c)) < 0.4
    dest = gen.integers(0, n, size=(trials, n, c))
    rng = _RecordingRng(5, (2,))
    route_census(tag, dest, rng)
    stages = stage_count(n)
    assert [b.shape for b in rng.blocks] == [(16384, 4)] * (4 * stages)
    whole = Rng(5, (2,))
    for stage in range(stages):
        drawn = np.concatenate(rng.blocks[4 * stage:4 * stage + 4])
        assert np.array_equal(drawn, whole.bits64((trials * n // 2, 2 * c)))


def test_census_block_scratch_is_bounded():
    # one spill-mc census block: 512 trials of n=256, c=2.  The stage kernel
    # holds two word buffers and one row block's scratch; a kernel that
    # allocated each stage's temporaries at full size held 7.9 MB
    trials, n, c = 512, 256, 2
    gen = np.random.Generator(np.random.PCG64(2))
    tag = gen.random((trials, n, c)) < 0.4
    dest = gen.integers(0, n, size=(trials, n, c))
    rng = Rng(2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        route_census(tag, dest, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, f"census block held {peak / 1e6:.2f} MB"
