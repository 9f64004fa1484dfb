"""Hierarchy: schedule closed forms, access semantics, rebuild accounting."""

import copy
import dataclasses
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pyramid_oram.pyramid as pyramid_mod
from pyramid_oram.core import (
    KEY_SENTINEL,
    MAX_REAL_KEY,
    BuildFailedError,
    CapacityExceededError,
    HashFamily,
    InvalidParameterError,
    OramError,
    Rng,
    SlotArray,
    StoreBrokenError,
    path_buckets,
    set_debug_checks,
)
from pyramid_oram.ozht import build_access_count, oblivious_build
from pyramid_oram.pyramid import (
    DEFAULT_C,
    LevelParams,
    PyramidConfig,
    PyramidOram,
    default_k,
    level_occupied,
    online_cost,
    rebuild_target,
)
from pyramid_oram.trace import TraceRecorder
from pyramid_oram.zht import Zht

from conftest import ToySchedule, make_elems

SMALL = PyramidConfig(capacity=128, first_level_size=4, payload_size=8, seed=3)
MED = PyramidConfig(capacity=1024, first_level_size=16, payload_size=8, seed=5)


def val(key: int, size: int = 8, salt: int = 0) -> bytes:
    return bytes([(key + salt + i) % 251 for i in range(size)])


# -- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        PyramidConfig(capacity=100, first_level_size=4)
    with pytest.raises(InvalidParameterError):
        PyramidConfig(capacity=128, first_level_size=5)
    with pytest.raises(InvalidParameterError):
        PyramidConfig(capacity=128, first_level_size=256)
    with pytest.raises(InvalidParameterError):
        PyramidConfig(capacity=128, first_level_size=4, payload_size=0)
    with pytest.raises(InvalidParameterError):
        PyramidConfig(capacity=128, first_level_size=4, max_retries=-1)
    with pytest.raises(InvalidParameterError):
        PyramidConfig(capacity=128, first_level_size=4, k_override=0)


def test_config_refuses_more_tables_than_a_region_id_holds():
    # a trace region id has 8 bits for the table index; at 300 tables the
    # first rebuild raised from inside the build
    assert PyramidConfig(capacity=64, first_level_size=8,
                         k_override=256).levels[0].k == 256
    with pytest.raises(InvalidParameterError, match="k_override"):
        PyramidConfig(capacity=64, first_level_size=8, k_override=257)


def test_config_refuses_a_negative_seed():
    # the store's Rng would refuse it only once the store is built
    with pytest.raises(InvalidParameterError, match="seed"):
        PyramidConfig(capacity=128, first_level_size=4, seed=-1)


@pytest.mark.parametrize("field,value", [
    ("capacity", "256"), ("capacity", 256.0), ("first_level_size", 8.0),
    ("payload_size", "8"), ("seed", 1.5), ("seed", 1.0), ("seed", True),
    ("max_retries", 1.0),
    ("k_override", 2.5), ("c_override", "2"),
])
def test_config_refuses_non_integer_fields(field, value):
    # a float seed would share a stream with its truncation
    values = {"capacity": 256, "first_level_size": 8, field: value}
    with pytest.raises(InvalidParameterError, match=field):
        PyramidConfig(**values)


def test_config_stores_numpy_integers_as_ints():
    # a numpy integer passes as_int but has no bit_length for num_levels
    numpy_config = PyramidConfig(capacity=np.int64(1024),
                                 first_level_size=np.int64(64),
                                 payload_size=np.uint8(8), k_override=np.int32(2))
    config = PyramidConfig(capacity=1024, first_level_size=64, payload_size=8,
                           k_override=2)
    assert numpy_config == config
    assert all(type(getattr(numpy_config, f.name)) is type(getattr(config, f.name))
               for f in dataclasses.fields(config))
    oram = PyramidOram(numpy_config)
    for key in range(200):
        oram.write(key, bytes([key]) * 8)
    assert oram.read(7) == bytes([7]) * 8


def test_default_k_frozen_points():
    for n, want in ((2, 2), (4, 2), (16, 2), (32, 3), (256, 3), (512, 4),
                    (16384, 4), (1 << 17, 5)):
        assert default_k(n) == want, n


def test_level_geometry_medium_config():
    assert MED.num_levels == 7
    assert [lp.n for lp in MED.levels] == [16, 32, 64, 128, 256, 512, 1024]
    assert [lp.k for lp in MED.levels] == [2, 3, 3, 3, 3, 4, 4]
    assert all(lp.c == DEFAULT_C for lp in MED.levels)
    assert [lp.slot_count for lp in MED.levels] == [
        128, 384, 768, 1536, 3072, 8192, 16384
    ]


def test_level_geometry_large_config():
    cfg = PyramidConfig(capacity=1 << 14, first_level_size=64)
    assert cfg.num_levels == 9
    assert [lp.k for lp in cfg.levels] == [3, 3, 3, 4, 4, 4, 4, 4, 4]
    assert cfg.levels[-1].n == 1 << 14


def test_config_levels_are_computed_once():
    cfg = PyramidConfig(capacity=1 << 14, first_level_size=64)
    fresh = PyramidConfig(capacity=1 << 14, first_level_size=64)
    assert cfg.levels is cfg.levels
    # the cached tuple is not a field: equality, hashing, repr and asdict
    # are those of a config that never computed it
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
    assert dataclasses.asdict(cfg) == dataclasses.asdict(fresh)
    smaller = dataclasses.replace(cfg, capacity=1 << 10)
    assert smaller.levels == PyramidConfig(capacity=1 << 10,
                                           first_level_size=64).levels
    assert [lp.n for lp in smaller.levels] == [64 << j for j in range(5)]


def test_config_overrides_apply_everywhere():
    cfg = PyramidConfig(capacity=64, first_level_size=8, k_override=1,
                        c_override=2)
    assert all(lp.k == 1 and lp.c == 2 for lp in cfg.levels)


def test_single_level_config():
    cfg = PyramidConfig(capacity=8, first_level_size=8)
    assert cfg.num_levels == 1
    assert rebuild_target(cfg, 8) == 1
    assert rebuild_target(cfg, 16) == 1


# -- schedule closed forms vs the toy simulator --------------------------------


@pytest.mark.parametrize("cfg,loaded", [
    (SMALL, False),
    (MED, False),
    (PyramidConfig(capacity=16, first_level_size=2), False),
    (PyramidConfig(capacity=8, first_level_size=8), False),
    (MED, True),
])
def test_schedule_matches_toy_simulator(cfg, loaded):
    p, n_cap = cfg.first_level_size, cfg.capacity
    toy = ToySchedule(cfg.num_levels, loaded=loaded)
    for t in range(0, 3 * n_cap + 1):
        # pre-access occupancy
        for j in range(1, cfg.num_levels + 1):
            assert level_occupied(cfg, j, t, loaded) == (j in toy.occupied), (t, j)
        want_cost = p + sum(
            lp.k for lp in cfg.levels if lp.index in toy.occupied
        )
        assert online_cost(cfg, t, loaded) == want_cost, t
        # post-access rebuild
        t_next = t + 1
        if t_next % p == 0:
            assert rebuild_target(cfg, t_next) == toy.merge(), t_next
        else:
            assert rebuild_target(cfg, t_next) == -1, t_next


def test_rebuild_target_edges():
    assert rebuild_target(MED, 0) == -1
    assert rebuild_target(MED, 16) == 1
    assert rebuild_target(MED, 32) == 2
    assert rebuild_target(MED, 48) == 1
    assert rebuild_target(MED, 1024) == 7
    assert rebuild_target(MED, 2048) == 7
    assert rebuild_target(MED, 1024 + 512) == 6


def test_level_occupied_range_checked():
    with pytest.raises(InvalidParameterError):
        level_occupied(MED, 0, 0, False)
    with pytest.raises(InvalidParameterError):
        level_occupied(MED, 8, 0, False)


# -- access semantics ----------------------------------------------------------


def test_read_write_roundtrip_and_previous_value(debug_checks):
    oram = PyramidOram(SMALL)
    assert oram.read(7) is None
    assert oram.write(7, val(7)) is None
    assert oram.read(7) == val(7)
    prev = oram.write(7, val(7, salt=9))
    assert prev == val(7)
    assert oram.read(7) == val(7, salt=9)


def test_semantics_match_dict_reference(debug_checks):
    cfg = SMALL
    oram = PyramidOram(cfg)
    reference: dict[int, bytes] = {}
    gen = np.random.Generator(np.random.PCG64(17))
    for step in range(3 * cfg.capacity):
        key = int(gen.integers(0, 64))
        if gen.random() < 0.5 and len(reference) < cfg.capacity:
            value = val(key, salt=step)
            assert oram.write(key, value) == reference.get(key)
            reference[key] = value
        else:
            # read keys known to exist to stay clear of the absent-read caveat
            if reference:
                key = sorted(reference)[int(gen.integers(0, len(reference)))]
                assert oram.read(key) == reference[key]
    assert oram.stored_items() == reference


def test_miss_and_validation():
    oram = PyramidOram(SMALL)
    assert oram.read(4040) is None
    with pytest.raises(InvalidParameterError):
        oram.access("delete", 1)
    with pytest.raises(InvalidParameterError):
        oram.write(1, b"wrong width")
    with pytest.raises(InvalidParameterError):
        oram.write(1, None)
    with pytest.raises(InvalidParameterError):
        oram.read(-1)
    # a non-integer key is refused, not truncated or parsed into another key
    for key in (1.5, "3", np.float64(2.0)):
        with pytest.raises(InvalidParameterError):
            oram.write(key, val(1))
        with pytest.raises(InvalidParameterError):
            oram.read(key)
    # refused before the access writes anything: the store stays usable
    assert oram.t == 1 and oram.stored_items() == {}
    assert oram.broken_by is None
    assert oram.read(1) is None


def test_bool_keys_are_refused_not_read_as_0_or_1():
    # True would index as key 1 and False as key 0
    oram = PyramidOram(SMALL)
    oram.write(0, val(0))
    oram.write(1, val(1))
    before = oram.stored_items()
    for key in (True, False, np.True_):
        with pytest.raises(InvalidParameterError):
            oram.read(key)
        with pytest.raises(InvalidParameterError):
            oram.write(key, val(2))
    assert oram.t == 2 and oram.stored_items() == before


BAD_VALUES = {
    "str": "abcdefgh",
    "list": [0] * 8,
    "int": 8,
    "short": b"x" * 7,
    "long": b"x" * 9,
    "short-row": np.zeros(7, np.uint8),
    "long-row": np.zeros(9, np.uint8),
    "int64-row": np.zeros(8, np.int64),
    "2d-row": np.zeros((1, 8), np.uint8),
}


@pytest.mark.parametrize("bad", BAD_VALUES, ids=list(BAD_VALUES))
def test_bad_write_value_is_refused_before_the_search(bad):
    cfg = PyramidConfig(capacity=64, first_level_size=4, payload_size=8, seed=1)
    rec, brec = TraceRecorder(), TraceRecorder()
    oram = PyramidOram(cfg, recorder=rec, build_recorder=brec)
    for key in range(8):
        oram.write(key, bytes([key]) * 8)

    def state():
        next_word = copy.deepcopy(oram._rng._gen.bit_generator).random_raw()
        return oram.t, oram.stored_items(), len(rec), len(brec), next_word

    before = state()
    for key in (1, 40):  # a stored key and a fresh one
        with pytest.raises(InvalidParameterError):
            oram.write(key, BAD_VALUES[bad])
        assert state() == before
    assert oram.read(1) == b"\x01" * 8
    assert oram.read(40) is None


def test_write_value_may_be_bytes_bytearray_or_a_uint8_row():
    oram = PyramidOram(SMALL)
    oram.write(1, bytearray(val(1)))
    oram.write(2, np.frombuffer(val(2), np.uint8))
    strided = np.frombuffer(val(3) * 2, np.uint8)[::2]
    oram.write(3, strided)
    assert oram.stored_items() == {1: val(1), 2: val(2), 3: strided.tobytes()}


def test_online_cost_holds_for_every_access(debug_checks):
    cfg = MED
    rec = TraceRecorder()
    oram = PyramidOram(cfg, recorder=rec)
    gen = np.random.Generator(np.random.PCG64(23))
    for t in range(2 * cfg.first_level_size * 8):
        before = len(rec)
        key = int(gen.integers(0, cfg.capacity))
        _, record = oram.access_with_record("write", key, val(key))
        assert record.op_index == t
        assert record.online_buckets == online_cost(cfg, t)
        assert len(rec) - before == record.online_buckets


def test_rebuild_info_first_and_full(debug_checks):
    cfg = MED
    oram = PyramidOram(cfg)
    gen = np.random.Generator(np.random.PCG64(29))
    full_infos = {}
    for t in range(2 * cfg.capacity):
        key = int(gen.integers(0, cfg.capacity))
        _, record = oram.access_with_record("write", key, val(key))
        if t == cfg.first_level_size - 1:
            info = oram.last_rebuild
            assert record.rebuilt_level == 1
            assert info.level == 1 and info.m_total == 16 and info.attempts == 1
            assert info.access_count == build_access_count(16, 16, 2, 4)
            assert record.total_buckets == record.online_buckets + info.access_count
        if record.rebuilt_level == cfg.num_levels:
            full_infos[t + 1] = oram.last_rebuild
    # first full rebuild sees no old last level; the second absorbs it
    assert sorted(full_infos) == [1024, 2048]
    assert full_infos[1024].m_total == 14096
    assert full_infos[2048].m_total == 30480
    assert full_infos[1024].access_count == build_access_count(14096, 1024, 4, 4)
    assert full_infos[2048].access_count == build_access_count(30480, 1024, 4, 4)


def test_build_recorder_charges_match_access_counts():
    cfg = PyramidConfig(capacity=64, first_level_size=4, payload_size=8, seed=1)
    brec = TraceRecorder()
    oram = PyramidOram(cfg, build_recorder=brec)
    for t in range(cfg.capacity):
        before = len(brec)
        _, record = oram.access_with_record("write", t, val(t))
        charged = record.total_buckets - record.online_buckets
        if record.rebuilt_level >= 0:
            assert len(brec) - before == charged
            assert charged == oram.last_rebuild.access_count
        else:
            assert len(brec) == before and charged == 0


# the golden shapes: the default one, c = 3 (an 8-wire network for 6 slots),
# and a k = 2, c = 1 store whose builds fail and retry
OBSERVED = {
    "p8": (dict(first_level_size=8), True),
    "c3": (dict(first_level_size=8, c_override=3), True),
    "k2c1-retry": (dict(first_level_size=8, k_override=2, c_override=1,
                        max_retries=3), False),
}


def _observed_run(name, recorders, monkeypatch):
    """Everything one seeded run shows but its traces."""
    fields, bulk = OBSERVED[name]
    cfg = PyramidConfig(capacity=256, payload_size=8, seed=1, **fields)
    oram = PyramidOram(cfg, *recorders)
    reports = []

    def recording_build(*args, **kwargs):
        z, report = oblivious_build(*args, **kwargs)
        reports.append(report)
        return z, report

    monkeypatch.setattr(pyramid_mod, "oblivious_build", recording_build)
    gen = np.random.Generator(np.random.PCG64(1001))
    outs = []
    try:
        if bulk:
            keys = gen.choice(200, size=64, replace=False).tolist()
            outs.append(oram.bulk_load([(key, val(key)) for key in keys]))
        for step in range(512):
            key = int(gen.integers(200))
            if gen.random() < 0.5:
                outs.append(oram.access_with_record("read", key))
            else:
                outs.append(oram.access_with_record("write", key, val(key, salt=step)))
    except BuildFailedError as err:
        outs.append(str(err))
    stores = [oram.level0] + [lvl.store for lvl in oram.levels if lvl is not None]
    return (outs, reports, oram.stored_items(),
            [(s.key.tobytes(), s.payload.tobytes()) for s in stores])


@pytest.mark.parametrize("name", sorted(OBSERVED))
def test_recording_only_observes(name, monkeypatch):
    plain = _observed_run(name, (), monkeypatch)
    recorders = (TraceRecorder(True), TraceRecorder(True))
    recorded = _observed_run(name, recorders, monkeypatch)
    assert len(recorders[0]) and len(recorders[1])
    assert recorded == plain


def test_capacity_enforced_for_fresh_keys_only(debug_checks):
    cfg = PyramidConfig(capacity=4, first_level_size=2, payload_size=8, seed=2)
    rec = TraceRecorder()
    oram = PyramidOram(cfg, recorder=rec)
    for key in range(4):
        oram.write(key, val(key))
    t, held, events = oram.t, oram.stored_items(), len(rec)
    rng_state = oram._rng._gen.bit_generator.state
    with pytest.raises(CapacityExceededError):
        oram.write(99, val(99))
    # the refusal is a miss that is never appended: a full online probe is
    # recorded, but no randomness is drawn and the store is unchanged
    assert len(rec) == events + online_cost(cfg, t, oram.loaded)
    assert (oram.t, oram.real_count, oram.stored_items()) == (t, 4, held)
    assert oram._rng._gen.bit_generator.state == rng_state
    assert oram.broken_by is None
    # overwrites and reads still work at full capacity
    assert oram.write(2, val(2, salt=1)) == val(2)
    assert oram.read(2) == val(2, salt=1)
    # the refused write searched for 99 for real, so reading it repeats that;
    # like any exception once an access has begun writing, it breaks the store
    with pytest.raises(AssertionError, match="repeated real search") as tripped:
        oram.read(99)
    assert oram.broken_by is tripped.value


def test_repeated_absent_read_detected_in_debug(debug_checks):
    oram = PyramidOram(SMALL)
    for key in range(SMALL.first_level_size):
        oram.write(key, val(key))  # occupy level 1
    assert oram.read(4000) is None
    with pytest.raises(AssertionError, match="repeated real search"):
        oram.read(4000)


def test_repeated_absent_read_allowed_without_debug():
    oram = PyramidOram(SMALL)
    for key in range(SMALL.first_level_size):
        oram.write(key, val(key))
    assert oram.read(4000) is None
    assert oram.read(4000) is None


def test_repeated_present_read_never_trips_the_log(debug_checks):
    oram = PyramidOram(SMALL)
    for key in range(2 * SMALL.first_level_size):
        oram.write(key % 5, val(key))
    for _ in range(3 * SMALL.first_level_size):
        for key in range(5):
            assert oram.read(key) is not None


# -- bulk load -----------------------------------------------------------------


def test_bulk_load_roundtrip(debug_checks):
    oram = PyramidOram(MED)
    items = [(key, val(key)) for key in range(0, 600, 3)]
    report = oram.bulk_load(items)
    assert report.success
    assert oram.t == 0 and oram.loaded
    assert oram.real_count == len(items)
    _, record = oram.access_with_record("read", 0)
    assert record.online_buckets == online_cost(MED, 0, loaded=True)
    assert record.online_buckets == MED.first_level_size + MED.levels[-1].k
    for key in range(9, 60, 3):
        assert oram.read(key) == val(key)
    assert oram.read(1) is None


def test_bulk_load_validation():
    oram = PyramidOram(SMALL)
    with pytest.raises(InvalidParameterError):
        oram.bulk_load([(1, val(1)), (1, val(1))])
    with pytest.raises(InvalidParameterError):
        oram.bulk_load([(k, val(k)) for k in range(SMALL.capacity + 1)])
    oram = PyramidOram(SMALL)
    assert oram.bulk_load([]) is None
    oram.write(1, val(1))
    with pytest.raises(InvalidParameterError):
        oram.bulk_load([(2, val(2))])


@pytest.mark.parametrize("bad", [
    (5, val(5)[:-1]),                   # payload one byte short
    (5, val(5) + b"\x00"),              # payload one byte long
    (-1, val(5)),                       # key below the range
    (MAX_REAL_KEY + 1, val(5)),         # the sentinel is not a real key
    ("3", val(5)),                      # a string is not parsed into a key
    (4.9, val(5)),                      # a float is not truncated into a key
    (5, 8),                             # bytes(8) would be eight zero bytes
    (5, "abcdefgh"),                    # a str is not a payload
    (True, val(5)),                     # a bool would alias key 1
    (1 << 64, val(5)),                  # too wide for any integer array
    (5, np.frombuffer(val(5), np.uint8).reshape(-1, 1)),  # not a row
    (5, np.frombuffer(val(5), np.int16)),  # not bytes, whatever its width
], ids=["payload-short", "payload-long", "key-negative", "key-sentinel",
        "key-str", "key-float", "payload-int", "payload-str", "key-true",
        "key-2^64", "payload-2d", "payload-int16"])
def test_bulk_load_refusal_leaves_the_store_fresh(bad):
    oram = PyramidOram(SMALL)
    items = [(key, val(key)) for key in range(10)]
    with pytest.raises(InvalidParameterError):
        oram.bulk_load(items + [bad])
    assert oram.t == 0 and oram.real_count == 0 and not oram.loaded
    assert oram.stored_items() == {}
    report = oram.bulk_load(items)
    assert report.success and oram.stored_items() == dict(items)


@pytest.mark.parametrize("good", [
    (np.uint32(10), val(10)),
    (10, bytearray(val(10))),
    (10, np.frombuffer(val(10), np.uint8)),
    (10, np.frombuffer(val(10) * 2, np.uint8)[::2]),  # a strided row
], ids=["key-uint32", "payload-bytearray", "payload-uint8-row",
        "payload-strided-row"])
def test_bulk_load_accepts_what_a_write_accepts(good):
    items = [(key, val(key)) for key in range(10)]
    oram = PyramidOram(SMALL)
    report = oram.bulk_load(items + [good])
    key, payload = good
    assert report.success
    assert oram.stored_items() == {**dict(items), int(key): bytes(payload)}


def test_bulk_load_then_full_cycle(debug_checks):
    cfg = PyramidConfig(capacity=64, first_level_size=8, payload_size=8, seed=7)
    oram = PyramidOram(cfg)
    items = [(key, val(key)) for key in range(40)]
    oram.bulk_load(items)
    for t in range(cfg.capacity + 1):
        oram.read(t % 40)
    assert dict(oram.stored_items()) == dict(items)


# -- determinism and failure policy ---------------------------------------------


def test_identical_configs_replay_identically():
    runs = []
    for _ in range(2):
        rec = TraceRecorder()
        oram = PyramidOram(MED, recorder=rec)
        records = []
        gen = np.random.Generator(np.random.PCG64(31))
        for t in range(200):
            key = int(gen.integers(0, 512))
            _, record = oram.access_with_record("write", key, val(key))
            records.append(record)
        regions, indices = rec.to_arrays()
        runs.append((records, regions.copy(), indices.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][2], runs[1][2])


def _tight_config(retries: int, seed: int) -> PyramidConfig:
    # k=1, c=1 levels fail their builds often enough to exercise the retries
    return PyramidConfig(capacity=32, first_level_size=8, payload_size=8,
                         seed=seed, max_retries=retries,
                         k_override=1, c_override=1)


def _run_tight(retries: int, seed: int, steps: int = 96):
    oram = PyramidOram(_tight_config(retries, seed))
    retried = False
    for t in range(steps):
        oram.write(t % 3, val(t % 3, salt=t))
        if oram.last_rebuild is not None and oram.last_rebuild.attempts > 1:
            retried = True
    return oram, retried


def test_strict_policy_raises_where_retry_recovers():
    seed = None
    for candidate in range(200):
        try:
            _run_tight(0, candidate)
        except BuildFailedError:
            seed = candidate
            break
    assert seed is not None, "no failing seed found; tighten the config"
    with pytest.raises(BuildFailedError) as excinfo:
        _run_tight(0, seed)
    assert excinfo.value.report is not None
    assert excinfo.value.report.failure_reason in (
        "throw_overflow", "final_phase_spill"
    )
    last_write = {key: max(t for t in range(96) if t % 3 == key) for key in range(3)}
    # under debug checks each retry also checks that the failed attempt's
    # storage it builds over was cleared to dummies
    for debug in (False, True):
        set_debug_checks(debug)
        try:
            oram, retried = _run_tight(8, seed)
        finally:
            set_debug_checks(False)
        assert retried, "retry run never needed a second attempt"
        assert oram.stored_items() == {
            key: val(key, salt=t) for key, t in last_write.items()
        }


def test_store_refuses_use_after_failed_build():
    # one single-slot table per level: the level-1 build at t=4 overflows
    cfg = PyramidConfig(capacity=64, first_level_size=4, k_override=1,
                        c_override=1, seed=0)
    size = cfg.payload_size
    oram = PyramidOram(cfg)
    for key in range(3):
        oram.write(key, val(key, size))
    with pytest.raises(BuildFailedError) as failed:
        oram.write(3, val(3, size))
    held = oram.stored_items()
    assert held == {key: val(key, size) for key in range(4)}
    for key in range(4, 40):
        with pytest.raises(StoreBrokenError) as refused:
            oram.write(key, val(key, size))
        assert isinstance(refused.value, OramError)
        assert refused.value.__cause__ is failed.value
    with pytest.raises(StoreBrokenError):
        oram.read(0)
    with pytest.raises(StoreBrokenError):
        oram.bulk_load([(99, val(99, size))])
    assert oram.t == 4
    assert oram.stored_items() == held


def test_failed_bulk_load_breaks_the_store():
    cfg = PyramidConfig(capacity=64, first_level_size=4, payload_size=8,
                        k_override=1, c_override=1, seed=0)
    oram = PyramidOram(cfg)
    with pytest.raises(BuildFailedError):
        oram.bulk_load([(key, val(key)) for key in range(64)])
    with pytest.raises(StoreBrokenError):
        oram.read(1)
    with pytest.raises(StoreBrokenError):
        oram.bulk_load([(key, val(key)) for key in range(4)])


def test_a_build_that_raises_anything_breaks_the_store(monkeypatch):
    # not only BuildFailedError: any exception from inside a build leaves the
    # access part-way through, and later accesses would overwrite log slots
    def fails(*args, **kwargs):
        raise RuntimeError("out of something")

    monkeypatch.setattr(pyramid_mod, "oblivious_build", fails)
    cfg = SMALL
    oram = PyramidOram(cfg)
    p = cfg.first_level_size
    for key in range(p - 1):
        oram.write(key, val(key))
    with pytest.raises(RuntimeError) as failed:
        oram.write(p - 1, val(p - 1))  # the first rebuild
    held = {key: val(key) for key in range(p)}
    assert oram.stored_items() == held
    for call in (lambda: oram.read(0), lambda: oram.write(99, val(99)),
                 lambda: oram.bulk_load([(99, val(99))])):
        with pytest.raises(StoreBrokenError) as refused:
            call()
        assert refused.value.__cause__ is failed.value
    assert oram.t == p
    assert oram.stored_items() == held


def test_a_rebuild_that_raises_before_its_build_breaks_the_store(monkeypatch):
    # the rebuild's gather runs after t has advanced, as does its log clear:
    # an exception there leaves the access part-way through too
    cfg = PyramidConfig(capacity=1024, first_level_size=16, seed=3)
    size = cfg.payload_size
    oram = PyramidOram(cfg)
    oram.bulk_load([(key, val(key, size)) for key in range(512)])
    for key in range(15):
        oram.write(key, val(key, size, salt=1))
    held = oram.stored_items()

    def fails(parts):
        raise MemoryError("gather")

    monkeypatch.setattr(pyramid_mod.BuildInput, "gather", fails)
    with pytest.raises(MemoryError) as failed:
        oram.read(600)  # t = 16: the level-1 rebuild
    assert oram.t == 16 and oram.broken_by is failed.value
    monkeypatch.undo()
    for call in (lambda: oram.read(0), lambda: oram.write(700, val(700, size))):
        with pytest.raises(StoreBrokenError) as refused:
            call()
        assert refused.value.__cause__ is failed.value
    assert oram.t == 16 and oram.stored_items() == held


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda oram: pickle.loads(pickle.dumps(oram))])
def test_a_copied_store_runs_as_the_original(clone):
    # each level's tables and bucket rows are views of its store; a copy
    # whose views held arrays of their own would search one array and
    # rebuild from another
    cfg = SMALL
    oram = PyramidOram(cfg)
    oram.bulk_load([(key, val(key)) for key in range(0, 96, 2)])
    for key in range(8):
        oram.write(key, val(key, salt=1))
    twin = clone(oram)
    for level in twin.levels:
        if level is not None:
            assert np.shares_memory(level.store.key, level._bucket_rows.key)
            assert np.shares_memory(level.store.key, level.tables[0].key)
    models = [oram.stored_items(), twin.stored_items()]
    assert models[0] == models[1]
    # reads and writes of stored keys only, past the full rebuild at
    # t = capacity: an absent key's second search would repeat its buckets
    gen = np.random.Generator(np.random.PCG64(9))
    keys = sorted(models[0])
    ops = [(int(gen.choice(keys)), gen.random() < 0.5)
           for _ in range(cfg.capacity + 2 * cfg.first_level_size)]
    for store, model in zip((oram, twin), models):
        for i, (key, write) in enumerate(ops):
            if write:
                assert store.write(key, val(key, salt=i)) == model[key]
                model[key] = val(key, salt=i)
            else:
                assert store.read(key) == model[key]
        assert store.t > cfg.capacity
        assert store.stored_items() == model
    assert models[0] == models[1]


# -- the key-only probe and the lane table ------------------------------------

TINY = [
    PyramidConfig(capacity=16, first_level_size=2, payload_size=4),
    PyramidConfig(capacity=16, first_level_size=2, payload_size=4,
                  k_override=1, c_override=1, max_retries=3),
    PyramidConfig(capacity=32, first_level_size=4, payload_size=4),
    # keys 0 .. 15 exceed this capacity, so fresh writes get refused
    PyramidConfig(capacity=4, first_level_size=2, payload_size=4),
]

# each must raise InvalidParameterError before the access touches anything
BAD_KEYS = [True, 1.5, "3", [3], -1, MAX_REAL_KEY + 1]
STEPS = st.sampled_from(["read", "write"] * 3 + ["bad key", "bad value", "bad op"])


def _bad_step(oram: PyramidOram, step: str, key: int) -> None:
    size = oram.config.payload_size
    if step == "bad key":
        oram.access("read", BAD_KEYS[key % len(BAD_KEYS)])
    elif step == "bad value":  # a str, an int, a list, one byte short
        oram.write(key, ["x" * size, size, [0] * size, bytes(size - 1)][key % 4])
    else:
        oram.access("delete", key)


# a third of the steps are refused inputs, so the lists run half again as
# long as with real steps alone, and a fourth config shares the examples
@settings(max_examples=120, deadline=None)
@given(cfg=st.sampled_from(TINY), seed=st.integers(0, 2**16),
       ops=st.lists(st.tuples(STEPS, st.integers(0, 15)),
                    min_size=12, max_size=180))
def test_key_only_probe_keeps_the_sentinel_invariant(cfg, seed, ops):
    # a slot is real iff its key is not KEY_SENTINEL, and search and the log
    # scan compare keys only; a removal that left the key behind would keep
    # the stale slot real, so stored_items() and later reads would see it.
    # A refused input, or a refused write at full capacity, changes nothing,
    # and a failed build refuses every later use
    oram = PyramidOram(dataclasses.replace(cfg, seed=seed), TraceRecorder(True))
    model: dict[int, bytes] = {}
    read_absent: set[int] = set()
    set_debug_checks(True)
    try:
        for i, (step, key) in enumerate(ops):
            t, events = oram.t, len(oram.recorder)
            if step.startswith("bad"):
                with pytest.raises(InvalidParameterError):
                    _bad_step(oram, step, key)
                assert (oram.t, len(oram.recorder)) == (t, events)
                assert oram.stored_items() == model and oram.broken_by is None
                continue
            if key in read_absent:
                # a second search for an absent key, read or write, trips the
                # debug search log (the absent-key re-read caveat)
                continue
            write = step == "write"
            if not write and key not in model:
                read_absent.add(key)
            value = val(key, cfg.payload_size, salt=i)
            try:
                got = oram.write(key, value) if write else oram.read(key)
            except CapacityExceededError:
                # a miss whose real searches were recorded
                assert key not in model and oram.t == t
                read_absent.add(key)
                assert oram.stored_items() == model and oram.broken_by is None
                continue
            except BuildFailedError:
                broken = True
            else:
                broken = False
                assert got == model.get(key)
            if write:
                model[key] = value
            assert oram.stored_items() == model
            if broken:
                for call in (lambda: oram.read(key),
                             lambda: oram.write(key, value),
                             lambda: oram.bulk_load([(key, value)])):
                    with pytest.raises(StoreBrokenError):
                        call()
                assert oram.stored_items() == model
                break
    finally:
        set_debug_checks(False)


def _lane_owner_levels(cfg: PyramidConfig, t: int, loaded: bool) -> list[int]:
    return [j for j in range(1, cfg.num_levels + 1)
            if level_occupied(cfg, j, t, loaded)]


def test_in_place_hash_leaves_its_inputs_unchanged(monkeypatch):
    # path_buckets and bucket_indices mix their lanes in place: after a bulk
    # load, accesses and rebuilds, the lane table, every level's subkeys and
    # every key column a build hashed must hold what they held before
    cfg = SMALL
    hashed: list[bool] = []
    bucket_indices = HashFamily.bucket_indices

    def spy(self, level, table_index, keys, n):
        # a build routes the column it hashed, so compare on return
        before = np.array(keys, copy=True)
        out = bucket_indices(self, level, table_index, keys, n)
        hashed.append(np.array_equal(keys, before))
        return out

    monkeypatch.setattr(HashFamily, "bucket_indices", spy)
    oram = PyramidOram(cfg)
    oram.bulk_load([(key, val(key)) for key in range(0, cfg.capacity, 2)])
    gen = np.random.Generator(np.random.PCG64(43))
    for step in range(2 * cfg.capacity):
        key = int(gen.integers(0, cfg.capacity))
        if step % 2:
            oram.write(key, val(key, salt=step))
        else:
            oram.read(key)
        assert all(hashed)
        subkeys, counts = [], []
        for j, level, _, _ in oram._probes:
            want = level.fam.subkeys(j, level.k)
            assert np.array_equal(level._subkeys, want)
            subkeys.append(want)
            counts.append(np.full(level.k, level.n, dtype=np.uint64))
        assert np.array_equal(oram._lane_subkeys, np.concatenate(subkeys))
        assert np.array_equal(oram._lane_n, np.concatenate(counts))
    assert hashed and oram.epochs[cfg.num_levels] >= 2, "no full rebuild was made"


@pytest.mark.parametrize("slot", range(SMALL.first_level_size))
def test_log_scan_hit_at_any_position(slot):
    # the scan takes its hit from nonzero() of the key compare: the payload
    # of that log slot comes back, and that slot alone becomes a dummy
    cfg = SMALL
    oram = PyramidOram(cfg)
    keys = [11, 22, 33, 44][:cfg.first_level_size - 1]
    for key in keys:
        oram.write(key, val(key))
    assert oram.t == len(keys) and oram.last_rebuild is None
    l0 = oram.level0
    if slot < len(keys):
        key, want = keys[slot], (True, val(keys[slot]))
    else:
        key, want = 55, (False, None)
    before_key, before_payload = l0.key.copy(), l0.payload.copy()
    assert oram._scan_level0(key) == want
    if want[0]:
        before_key[slot] = KEY_SENTINEL
        before_payload[slot] = 0
    assert np.array_equal(l0.key, before_key)
    assert np.array_equal(l0.payload, before_payload)


@pytest.mark.parametrize("loaded", [False, True])
def test_lane_table_follows_the_schedule(loaded):
    cfg = SMALL
    oram = PyramidOram(cfg)
    if loaded:
        oram.bulk_load([(key, val(key)) for key in range(0, cfg.capacity, 2)])
    gen = np.random.Generator(np.random.PCG64(41))
    for step in range(3 * cfg.capacity):
        key = int(gen.integers(0, cfg.capacity))
        oram.write(key, val(key, salt=step))
        assert [j for j, *_ in oram._probes] == _lane_owner_levels(
            cfg, oram.t, loaded)
        lanes = path_buckets(oram._lane_subkeys, key, oram._lane_n)
        assert lanes.size == online_cost(cfg, oram.t, loaded) - cfg.first_level_size
        for j, level, lo, hi in oram._probes:
            assert level is oram.levels[j]
            assert lanes[lo:hi].tolist() == level.path(key)


def test_no_real_probe_below_the_hit(monkeypatch):
    # levels are searched for real in order up to the hit and only dummy
    # searched after it, so no real-path bucket below the hit is read
    calls: list[tuple[int, str]] = []
    search, dummy_search = Zht.search, Zht.dummy_search

    def spy_search(self, *args, **kwargs):
        out = search(self, *args, **kwargs)
        calls.append((self.level_id, "hit" if out is not None else "miss"))
        return out

    def spy_dummy(self, *args, **kwargs):
        calls.append((self.level_id, "dummy"))
        return dummy_search(self, *args, **kwargs)

    monkeypatch.setattr(Zht, "search", spy_search)
    monkeypatch.setattr(Zht, "dummy_search", spy_dummy)
    cfg = MED
    oram = PyramidOram(cfg)
    oram.bulk_load([(key, val(key)) for key in range(0, cfg.capacity, 3)])
    gen = np.random.Generator(np.random.PCG64(43))
    level_hits = 0
    for step in range(2 * cfg.capacity):
        key = int(gen.integers(0, cfg.capacity))
        occupied = [j for j, *_ in oram._probes]
        calls.clear()
        _, record = oram.access_with_record("write", key, val(key, salt=step))
        assert [j for j, _ in calls] == occupied
        kinds = "".join(kind[0] for _, kind in calls)
        if "h" in kinds:
            level_hits += 1
            assert re.fullmatch("m*hd*", kinds), kinds
        elif record.found:
            assert re.fullmatch("d*", kinds), kinds  # found in the log
        else:
            assert re.fullmatch("m*", kinds), kinds
    assert level_hits > 0


def test_full_rebuild_scratch_stays_near_the_last_level():
    # a rebuild reads only the reals of its sources, so the full rebuild's
    # peak is the new last level plus scratch that grows with the reals,
    # not a padded copy of every source slot
    cfg = PyramidConfig(capacity=4096, first_level_size=64, payload_size=56,
                        seed=1)
    oram = PyramidOram(cfg)
    half = cfg.capacity // 2
    oram.bulk_load([(key, val(key, 56)) for key in range(half)])
    for step in range(cfg.capacity - 1):
        oram.read(step % half)
    tracemalloc.start()
    try:
        oram.read(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oram.last_rebuild.level == cfg.num_levels
    store = oram.levels[cfg.num_levels].store
    level_bytes = store.key.nbytes + store.payload.nbytes
    assert peak <= 2.0 * level_bytes, f"peak {peak / level_bytes:.2f}x the last level"


# -- level storage lives as long as the store ---------------------------------


def test_levels_build_over_the_storage_they_retired(debug_checks):
    # four full periods: below the last level every build after the first
    # runs over the buffer of that first build; the last level alternates
    # between two buffers, since the old one stays installed until its
    # successor is built.  Debug checks refuse a handed-in buffer that is
    # not all dummies.
    cfg = SMALL
    last = cfg.num_levels
    oram = PyramidOram(cfg)
    reference: dict[int, bytes] = {}
    first: dict[int, np.ndarray] = {}
    builds = dict.fromkeys(range(1, last), 0)
    last_keys: list[np.ndarray] = []
    held = None
    gen = np.random.Generator(np.random.PCG64(53))
    for step in range(4 * cfg.capacity):
        key = int(gen.integers(0, 64))
        value = val(key, salt=step)
        _, record = oram.access_with_record("write", key, value)
        reference[key] = value
        j = record.rebuilt_level
        if j < 0:
            continue
        store_key = oram.levels[j].store.key
        if j == last:
            last_keys.append(store_key)
            continue
        builds[j] += 1
        assert np.shares_memory(store_key, first.setdefault(j, store_key)), j
        if j == 1 and held is None:
            held = oram.levels[1]
        elif held is not None and oram.levels[1] is None:
            # a Zht taken from oram.levels is a live view of the storage
            assert held.real_counts() == [0] * held.k
    assert min(builds.values()) >= 2 and len(last_keys) == 4
    for i in range(2, len(last_keys)):
        assert np.shares_memory(last_keys[i], last_keys[i - 2])
        assert not np.shares_memory(last_keys[i], last_keys[i - 1])
    assert oram.stored_items() == reference


@pytest.mark.parametrize("poison", ["real key", "payload byte"])
def test_build_refuses_storage_that_is_not_all_dummies(debug_checks, poison):
    elems = make_elems(6, 32)
    fresh, _ = oblivious_build(elems, 8, 2, 2, HashFamily(1), Rng(4))
    handed = SlotArray((2, 8, 2), 8)
    z, _ = oblivious_build(elems, 8, 2, 2, HashFamily(1), Rng(4), store=handed)
    assert (np.shares_memory(z.store.key, handed.key)
            and np.shares_memory(z.store.payload, handed.payload))
    assert np.array_equal(handed.key, fresh.store.key)
    assert np.array_equal(handed.payload, fresh.store.payload)
    handed.clear()
    if poison == "real key":
        handed.key[1, 3, 0] = 5
    else:
        handed.payload[0, 2, 1, 4] = 1  # a dummy row's byte
    with pytest.raises(InvalidParameterError, match=poison.split()[-1]):
        oblivious_build(elems, 8, 2, 2, HashFamily(1), Rng(4), store=handed)
    for wrong in (SlotArray((2, 8, 4), 8), SlotArray((2, 8, 2), 4),
                  SlotArray((4, 8, 2), 8)[::2]):
        with pytest.raises(InvalidParameterError, match="store must be"):
            oblivious_build(elems, 8, 2, 2, HashFamily(1), Rng(4), store=wrong)
