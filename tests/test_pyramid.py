"""Hierarchy: schedule closed forms, access semantics, rebuild accounting."""

import numpy as np
import pytest

from pyramid_oram.core import (
    BuildFailedError,
    CapacityExceededError,
    InvalidParameterError,
    OramError,
    StoreBrokenError,
)
from pyramid_oram.ozht import build_access_count
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

from conftest import ToySchedule

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
        PyramidConfig(capacity=128, first_level_size=4, failure_policy="ignore")
    with pytest.raises(InvalidParameterError):
        PyramidConfig(capacity=128, first_level_size=4, k_override=0)


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


def test_config_overrides_apply_everywhere():
    cfg = PyramidConfig(capacity=64, first_level_size=8, k_override=1,
                        c_override=2)
    assert all(lp.k == 1 and lp.c == 2 for lp in cfg.levels)


def test_config_json_roundtrip():
    cfg = PyramidConfig(capacity=256, first_level_size=8, payload_size=16,
                        seed=42, failure_policy="retry", max_retries=5,
                        k_override=2)
    data = cfg.to_json()
    assert PyramidConfig.from_json(data) == cfg
    data["version"] = 99
    with pytest.raises(InvalidParameterError):
        PyramidConfig.from_json(data)


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


def test_online_cost_holds_for_every_access(debug_checks):
    cfg = MED
    rec = TraceRecorder()
    oram = PyramidOram(cfg, recorder=rec)
    gen = np.random.Generator(np.random.PCG64(23))
    for t in range(2 * cfg.first_level_size * 8):
        before = rec.position()
        key = int(gen.integers(0, cfg.capacity))
        _, record = oram.access_with_record("write", key, val(key))
        assert record.op_index == t
        assert record.online_buckets == online_cost(cfg, t)
        assert rec.position() - before == record.online_buckets


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
        before = brec.position()
        _, record = oram.access_with_record("write", t, val(t))
        charged = record.total_buckets - record.online_buckets
        if record.rebuilt_level >= 0:
            assert brec.position() - before == charged
            assert charged == oram.last_rebuild.access_count
        else:
            assert brec.position() == before and charged == 0


def test_capacity_enforced_for_fresh_keys_only():
    cfg = PyramidConfig(capacity=4, first_level_size=2, payload_size=8, seed=2)
    oram = PyramidOram(cfg)
    for key in range(4):
        oram.write(key, val(key))
    with pytest.raises(CapacityExceededError):
        oram.write(99, val(99))
    # overwrites and reads still work at full capacity
    assert oram.write(2, val(2, salt=1)) == val(2)
    assert oram.read(2) == val(2, salt=1)


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
        regions, indices, ops = rec.to_arrays()
        runs.append((records, regions.copy(), indices.copy(), ops.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][2], runs[1][2])
    assert np.array_equal(runs[0][3], runs[1][3])


def _tight_config(policy: str, seed: int) -> PyramidConfig:
    # k=1, c=1 levels fail their builds often enough to exercise the policies
    return PyramidConfig(capacity=32, first_level_size=8, payload_size=8,
                         seed=seed, failure_policy=policy, max_retries=8,
                         k_override=1, c_override=1)


def _run_tight(policy: str, seed: int, steps: int = 96):
    oram = PyramidOram(_tight_config(policy, seed))
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
            _run_tight("strict", candidate)
        except BuildFailedError:
            seed = candidate
            break
    assert seed is not None, "no failing seed found; tighten the config"
    with pytest.raises(BuildFailedError) as excinfo:
        _run_tight("strict", seed)
    assert excinfo.value.report is not None
    assert excinfo.value.report.failure_reason in (
        "throw_overflow", "final_phase_spill"
    )
    oram, retried = _run_tight("retry", seed)
    assert retried, "retry run never needed a second attempt"
    last_write = {key: max(t for t in range(96) if t % 3 == key) for key in range(3)}
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
