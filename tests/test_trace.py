"""Trace recording, shape comparison, and the uniformity test helper."""

import subprocess
import sys

import numpy as np
import pytest

from pyramid_oram.core import InsufficientDataError, InvalidParameterError, Rng
from pyramid_oram.ozht import build_access_count
from pyramid_oram.trace import (
    L0_REGION,
    TraceRecorder,
    chi_square_uniform,
    is_table_region,
    region_level,
    region_table,
    shapes_equal,
    sim_build,
    sim_search,
    sim_throw,
    table_region,
)

from conftest import trace_pairs


def test_region_packing_roundtrip():
    for level in (0, 1, 7, 40, 65535):
        for table in (0, 1, 3, 255):
            region = table_region(level, table)
            assert region_level(region) == level
            assert region_table(region) == table
            assert is_table_region(region)
    assert not is_table_region(L0_REGION)


def test_region_fields_validated():
    with pytest.raises(InvalidParameterError):
        table_region(-1, 0)
    with pytest.raises(InvalidParameterError):
        table_region(0, 256)
    with pytest.raises(InvalidParameterError):
        table_region(1 << 16, 0)


def test_regions_are_distinct():
    seen = {L0_REGION}
    for level in range(4):
        for table in range(4):
            region = table_region(level, table)
            assert region not in seen
            seen.add(region)


def test_record_preserves_order():
    rec = TraceRecorder()
    rec.record(L0_REGION, 3)
    rec.record(table_region(1, 0), 7)
    rec.record(L0_REGION, 3)
    assert len(rec) == 3
    assert trace_pairs(rec) == [
        (L0_REGION, 3), (table_region(1, 0), 7), (L0_REGION, 3),
    ]


def test_record_one_region_expands_in_index_order():
    rec = TraceRecorder()
    rec.record(5, [4, 1, 9])
    rec.record(6, [[2, 8], [0, 3]])  # any shape, C order
    regions, indices = rec.to_arrays()
    assert indices.tolist() == [4, 1, 9, 2, 8, 0, 3]
    assert regions.tolist() == [5] * 3 + [6] * 4
    assert (regions.dtype, indices.dtype) == (np.int32, np.int64)


def test_record_regions_is_row_major_per_slot():
    rec = TraceRecorder()
    regions = [10, 11, 12]
    matrix = np.array([[0, 1, 2], [3, 4, 5]])
    rec.record(regions, matrix)
    assert trace_pairs(rec) == [(10, 0), (11, 1), (12, 2), (10, 3), (11, 4), (12, 5)]


def test_record_shape_mismatch_raises():
    rec = TraceRecorder()
    with pytest.raises(InvalidParameterError):
        rec.record([1, 2], np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(InvalidParameterError):
        rec.record([1, 2], [0, 1])  # r > 1 needs a (rows, r) matrix
    assert len(rec) == 0


def test_disabled_recorder_is_noop():
    rec = TraceRecorder(enabled=False)
    rec.record(1, 2)
    rec.record(1, [1, 2])
    rec.record([1, 2], np.zeros((2, 2), dtype=np.int64))
    assert len(rec) == 0
    assert rec.shape_projection().shape == (0,)


def test_len_marks_windows():
    rec = TraceRecorder()
    rec.record(1, 0)
    mark = len(rec)
    rec.record(2, 1)
    rec.record(3, 2)
    window = rec.shape_projection(mark, len(rec))
    assert window.tolist() == [2, 3]


def test_shape_projection_erases_indices():
    a = TraceRecorder()
    b = TraceRecorder()
    a.record(7, 0)
    b.record(7, 5)
    assert shapes_equal(a, b)
    assert a.shape_projection().tolist() == [7]


def test_shapes_differ_on_region_or_length():
    base = TraceRecorder()
    base.record(7, 0)

    other = TraceRecorder()
    other.record(8, 0)
    assert not shapes_equal(base, other)

    other = TraceRecorder()
    other.record(7, [0, 0])
    assert not shapes_equal(base, other)


def test_index_histogram_counts_one_region():
    rec = TraceRecorder()
    rec.record(4, [0, 2, 2, 3])
    rec.record(5, [1, 1])
    assert rec.index_histogram(4, 5).tolist() == [1, 0, 2, 1, 0]
    assert rec.index_histogram(5, 2).tolist() == [0, 2]
    with pytest.raises(InvalidParameterError):
        rec.index_histogram(4, 3)  # index 3 recorded, n too small


def test_regions_present_sorted():
    rec = TraceRecorder()
    rec.record(9, 0)
    rec.record(2, 0)
    rec.record(9, 1)
    assert rec.regions_present() == [2, 9]


def test_write_csv(tmp_path):
    # region,index lines that read back as to_arrays(), column by column
    one, many = TraceRecorder(), TraceRecorder()
    one.record(table_region(2, 1), [5, 0, 1 << 40])
    many.record([L0_REGION, table_region(1, 0), table_region(1, 1)],
                np.arange(12).reshape(4, 3))
    for rec in (one, many):
        out = tmp_path / "trace.csv"
        rec.write_csv(out)
        back = np.loadtxt(out, delimiter=",", dtype=np.int64, ndmin=2)
        assert back.shape == (len(rec), 2)
        for column, want in zip(back.T, rec.to_arrays()):
            assert np.array_equal(column, want)
    TraceRecorder().write_csv(out)
    assert out.read_text() == ""


def test_clear_resets():
    rec = TraceRecorder()
    rec.record(1, 2)
    rec.clear()
    assert len(rec) == 0
    assert trace_pairs(rec) == []


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy is chi_square_uniform's alone; loading it costs ~1 s and ~70 MB
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pyramid_oram; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_chi_square_accepts_uniform_counts():
    gen = np.random.Generator(np.random.PCG64(3))
    counts = np.bincount(gen.integers(0, 64, size=64 * 200), minlength=64)
    result = chi_square_uniform(counts)
    assert result.passed
    assert result.dof == 63
    assert result.statistic <= result.critical_value


def test_chi_square_rejects_skewed_counts():
    counts = np.full(16, 100)
    counts[0] = 400
    result = chi_square_uniform(counts)
    assert not result.passed
    assert result.p_value < 0.001


def test_chi_square_input_validation():
    with pytest.raises(InsufficientDataError):
        chi_square_uniform(np.ones(10))  # 10 samples over 10 cells
    with pytest.raises(InvalidParameterError):
        chi_square_uniform(np.array([5.0]))
    with pytest.raises(InvalidParameterError):
        chi_square_uniform(np.full(4, 100), significance=0.0)
    with pytest.raises(InvalidParameterError):
        chi_square_uniform(np.full(4, 100), significance=1.0)


def test_sim_search_touches_one_bucket_per_table():
    for k in (1, 2, 4):
        rec = sim_search(32, k, 2, Rng(11, (k,)))
        regions = rec.shape_projection()
        assert len(regions) == k
        assert [region_table(region) for region in regions] == list(range(k))


def test_sim_throw_touches_k_buckets_per_slot():
    rec = sim_throw(12, 16, 3, 2, Rng(13, ()))
    assert len(rec) == 12 * 3
    proj = rec.shape_projection()
    # every slot touches tables 0..k-1 in order
    assert proj.reshape(12, 3).tolist() == [
        [table_region(0, 0), table_region(0, 1), table_region(0, 2)]
    ] * 12


def test_sim_build_trace_length_matches_formula():
    for n, k, c in ((16, 1, 2), (16, 2, 2), (8, 3, 4)):
        m_total = n * c * k  # a full-size input batch
        rec = sim_build(m_total, n, k, c, Rng(17, (n, k, c)))
        assert len(rec) == build_access_count(m_total, n, k, c)
