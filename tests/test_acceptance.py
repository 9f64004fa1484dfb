"""Acceptance suite: one test per shipped claim, at the stated scales.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Scales and tolerances here are the contract; do not shrink them
to make a failure go away.
"""

import math
import struct
import time
from fractions import Fraction

import numpy as np
import pytest

from pyramid_oram.analysis import (
    bucket_overflow_prob_bound,
    bucket_overflow_prob_bound_exact,
    decay_check,
    expected_spill_bound,
    expected_spill_bound_exact,
    mc_prn_stage_spill,
    mc_throw_spill,
)
from pyramid_oram.core import HashFamily, Rng
from pyramid_oram.ozht import oblivious_build
from pyramid_oram.prn import route, route_reference
from pyramid_oram.pyramid import PyramidConfig, PyramidOram, online_cost
from pyramid_oram.trace import (
    TraceRecorder,
    chi_square_uniform,
    shapes_equal,
    sim_build,
    sim_search,
    sim_throw,
    table_region,
)
from pyramid_oram.zht import Zht

from conftest import ToySchedule, make_elems, make_routing_table


def value8(key: int, salt: int) -> bytes:
    return struct.pack("<II", key & 0xFFFFFFFF, salt & 0xFFFFFFFF)


def test_criterion_1_matches_plain_dict_over_100k_ops():
    # 10^5 uniform read/write ops at capacity 2^14, log size 64, against a
    # plain dict; every returned value must agree, within a five-minute budget
    start = time.monotonic()
    cfg = PyramidConfig(capacity=1 << 14, first_level_size=64,
                        payload_size=8, seed=1001)
    oram = PyramidOram(cfg)
    reference: dict[int, bytes] = {}
    gen = np.random.Generator(np.random.PCG64(2024))
    n_ops = 100_000
    keys = gen.integers(0, cfg.capacity, size=n_ops)
    is_read = gen.random(n_ops) < 0.5
    mismatches = 0
    for i in range(n_ops):
        key = int(keys[i])
        want = reference.get(key)
        if is_read[i]:
            got = oram.read(key)
        else:
            value = value8(key, i)
            got = oram.write(key, value)
            reference[key] = value
        mismatches += int(got != want)
    assert mismatches == 0
    assert oram.stored_items() == reference
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_2_verified_parameters_never_reach_last_tables():
    # 100 full-load builds at n=2^11, k=4, c=4: no failures, and tables 3-4
    # never see a single real element
    report = decay_check(2048, 4, 4, trials=100, seed=777)
    assert report.failures == 0
    assert report.max_arrivals[2] == 0
    assert report.max_arrivals[3] == 0
    assert report.max_occupancy[2] == 0
    assert report.max_occupancy[3] == 0


def test_criterion_3_repartition_count_is_half_n_log_n():
    for n in (8, 64, 1024):
        table, dests = make_routing_table(n, 2, n // 2, seed=n)
        stats = route(table, dests, Rng(n, (1,)))
        assert stats.repartitions == (n // 2) * int(math.log2(n)), n
    # the slot-at-a-time reference counts repartitions the same way
    table, dests = make_routing_table(8, 2, 4, seed=3)
    assert route_reference(table, dests, Rng(3, (1,))).repartitions == 12


def test_criterion_4_throw_spill_within_exact_bound():
    bound = expected_spill_bound_exact(1024, 1024, 4)
    assert bound == Fraction(math.comb(1024, 5), 1024**4)
    assert float(bound) == 8.450284433551133
    stats = mc_throw_spill(1024, 1024, 4, trials=10_000, seed=4242)
    assert stats.mean <= float(bound) + 3 * stats.stderr, stats


def test_criterion_5_stage_spill_below_throw_at_same_live_count():
    n, c, trials = 256, 2, 10_000
    report = mc_prn_stage_spill(n, c, n, trials=trials, seed=555)
    assert len(report.stage_mean) == 8
    for s in range(8):
        live = max(2, round(report.stage_live_mean[s]))
        baseline = mc_throw_spill(live, n, c, trials=trials, seed=556 + s)
        budget = 3 * math.sqrt(report.stage_stderr[s] ** 2
                               + baseline.stderr**2)
        assert report.stage_mean[s] <= baseline.mean + budget, (
            s, report.stage_mean[s], baseline.mean
        )


def test_criterion_6_shapes_identical_across_data_and_simulators():
    # twenty random (workload, config) pairs: two runs with different keys,
    # values, and op mixes give byte-identical online and rebuild shape
    # projections at equal op counts
    gen = np.random.Generator(np.random.PCG64(66))
    for pair in range(20):
        capacity = int(gen.choice([64, 128, 256]))
        p = int(gen.choice([x for x in (4, 8, 16) if x <= capacity]))
        t_ops = int(gen.integers(p, 3 * capacity))
        cfg = PyramidConfig(capacity=capacity, first_level_size=p,
                            payload_size=8, seed=pair)
        shapes = []
        for variant in range(2):
            rec, brec = TraceRecorder(), TraceRecorder()
            oram = PyramidOram(cfg, rec, brec)
            wgen = np.random.Generator(np.random.PCG64([pair, variant]))
            wkeys = wgen.integers(0, capacity, size=t_ops)
            is_read = wgen.random(t_ops) < (0.2 + 0.6 * variant)
            for i in range(t_ops):
                key = int(wkeys[i])
                if is_read[i]:
                    oram.read(key)
                else:
                    oram.write(key, value8(key, i + 7919 * variant))
            shapes.append((rec.shape_projection().tobytes(),
                           brec.shape_projection().tobytes()))
        assert shapes[0][0] == shapes[1][0], f"online shape diverged, pair {pair}"
        assert shapes[0][1] == shapes[1][1], f"build shape diverged, pair {pair}"

    # simulators fed only public parameters reproduce the real shapes
    n, k, c = 16, 3, 2
    fam = HashFamily(seed=9)
    z = Zht(n, k, c, fam, payload_size=8)
    for key in range(10):
        z.zigzag_insert(key, value8(key, 0), z.path(key))
    rec = TraceRecorder()
    z.search(5, recorder=rec)
    assert shapes_equal(rec, sim_search(n, k, c, Rng(1, (0,))))

    rec = TraceRecorder()
    z2 = Zht(n, k, c, fam, payload_size=8)
    z2.throw(make_elems(12, 40, 8), Rng(2, (0,)), recorder=rec)
    assert shapes_equal(rec, sim_throw(40, n, k, c, Rng(3, (0,))))

    rec = TraceRecorder()
    m_total = n * k * c
    _, report = oblivious_build(make_elems(n, m_total, 8), n, k, c,
                                HashFamily(seed=0), Rng(0, (0,)), recorder=rec)
    assert report.success
    assert shapes_equal(rec, sim_build(m_total, n, k, c, Rng(4, (0,))))


def test_criterion_7_bucket_indices_pass_chi_square():
    cfg = PyramidConfig(capacity=1024, first_level_size=16, payload_size=8,
                        seed=7)
    rec = TraceRecorder()
    oram = PyramidOram(cfg, recorder=rec)
    gen = np.random.Generator(np.random.PCG64(71))
    n_ops = 10_000
    keys = gen.integers(0, cfg.capacity, size=n_ops)
    for i in range(n_ops):
        key = int(keys[i])
        oram.write(key, value8(key, i))
    level_events = 0
    for lp in cfg.levels:
        counts = np.zeros(lp.n, dtype=np.int64)
        for tj in range(lp.k):
            counts += rec.index_histogram(table_region(lp.index, tj), lp.n)
        level_events += int(counts.sum())
        result = chi_square_uniform(counts, significance=0.001)
        assert result.passed, (lp.index, result)
    assert level_events >= 100_000


def test_criterion_8_schedule_and_cost_exactness():
    cfg = PyramidConfig(capacity=1 << 10, first_level_size=16, payload_size=8,
                        seed=8)
    cap, p = cfg.capacity, cfg.first_level_size
    oram = PyramidOram(cfg)
    toy = ToySchedule(cfg.num_levels)
    gen = np.random.Generator(np.random.PCG64(88))
    records = []
    for t in range(3 * cap):
        key = int(gen.integers(0, cap))
        _, record = oram.access_with_record("write", key, value8(key, t))
        records.append(record)
        # (a) each rebuild target matches the standalone oracle
        if (t + 1) % p == 0:
            assert record.rebuilt_level == toy.merge(), t
        else:
            assert record.rebuilt_level == -1, t
        # (b) the online bucket count is the closed form, every access
        assert record.online_buckets == online_cost(cfg, t), t

    # (c) rebuild depth fractions are exact powers: depth >= i on exactly
    # a 1/(2^i p) fraction of accesses (depth counted from 0)
    total = len(records)
    for i in range(cfg.num_levels):
        hits = sum(1 for r in records if r.rebuilt_level - 1 >= i)
        assert Fraction(hits, total) == Fraction(1, (1 << i) * p), i

    # (d) the cheap common case: at least (p-1)/p of accesses cost no more
    # than the online maximum
    online_max = max(online_cost(cfg, t) for t in range(3 * cap))
    cheap = sum(1 for r in records if r.total_buckets <= online_max)
    assert Fraction(cheap, total) >= Fraction(p - 1, p)


def test_criterion_9_bound_paths_agree_to_ten_digits():
    matrix = [
        (7, 8, 3), (50, 8, 3), (64, 64, 2), (256, 256, 2), (512, 256, 2),
        (1024, 1024, 4), (2048, 2048, 4), (4096, 4096, 4),
        (16384, 16384, 4), (100_000, 4096, 4), (1_000_000, 65536, 5),
    ]
    for m, n, c in matrix:
        exact = float(bucket_overflow_prob_bound_exact(m, n, c))
        assert bucket_overflow_prob_bound(m, n, c, method="float") == (
            pytest.approx(exact, rel=5e-11)
        ), (m, n, c)
        exact = float(expected_spill_bound_exact(m, n, c))
        assert expected_spill_bound(m, n, c, method="float") == (
            pytest.approx(exact, rel=5e-11)
        ), (m, n, c)
    # nothing can spill when m <= c, nothing can overflow when m < c
    for m, c in ((0, 1), (2, 2), (3, 4), (4, 4)):
        assert expected_spill_bound_exact(m, 16, c) == 0
        assert expected_spill_bound(m, 16, c, method="float") == 0.0
    for m, c in ((0, 1), (1, 2), (3, 4)):
        assert bucket_overflow_prob_bound_exact(m, 16, c) == 0
        assert bucket_overflow_prob_bound(m, 16, c, method="float") == 0.0
