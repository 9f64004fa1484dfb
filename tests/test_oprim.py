"""Oblivious primitives: constant-shape swaps and the sorting network."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyramid_oram import oprim
from pyramid_oram.core import InvalidParameterError
from pyramid_oram.oprim import (
    SortItem,
    batcher_sort,
    comparator_schedule,
    cond_swap,
    sort_key,
    sort_key_into,
    sort_network_perm,
)

# comparator counts from the textbook odd-even recurrence
# S(1) = 0, S(n) = 2 S(n/2) + M(n); M(2) = 1, M(n) = 2 M(n/2) + n/2 - 1
COMPARATOR_COUNTS = {2: 1, 4: 5, 8: 19, 16: 63, 32: 191}


def _merge_count(n: int) -> int:
    if n == 2:
        return 1
    return 2 * _merge_count(n // 2) + n // 2 - 1


def _sort_count(n: int) -> int:
    if n == 1:
        return 0
    return 2 * _sort_count(n // 2) + _merge_count(n)


def test_cond_swap_exhaustive():
    for flag in (0, 1):
        values = [5, 9]
        cond_swap(flag, values, 0, 1)
        assert values == ([9, 5] if flag else [5, 9])


def test_sort_key_orders_class_before_tiebreak():
    low = sort_key(0, (1 << 64) - 1)
    high = sort_key(1, 0)
    assert low < high
    a = sort_key(1, 4)
    b = sort_key(1, 8)
    assert a < b


def test_sort_key_array_matches_scalar():
    cls = np.array([0, 1, 2, 1], dtype=np.uint64)
    tie = np.array([7, (1 << 63) + 5, 0, 12], dtype=np.uint64)
    vec = sort_key(cls, tie)
    for i in range(4):
        assert int(vec[i]) == sort_key(int(cls[i]), int(tie[i]))
    # the in-place form, from the classes in a scratch buffer
    buf = tie.copy()
    assert sort_key_into(buf, cls.copy()) is buf
    assert np.array_equal(buf, vec)


def test_comparator_counts_match_recurrence():
    for n, count in COMPARATOR_COUNTS.items():
        assert _sort_count(n) == count, "frozen table disagrees with recurrence"
        assert len(comparator_schedule(n)) == count
        assert all(i < j for i, j in comparator_schedule(n))


def test_comparator_schedule_is_fixed():
    assert comparator_schedule(8) is comparator_schedule(8)
    with pytest.raises(InvalidParameterError):
        comparator_schedule(0)


def test_comparator_schedule_sorts_every_zero_one_input():
    # by the 0-1 principle a comparator network sorts every input iff it
    # sorts every 0-1 input; all 2^m of them run at once, one row each
    for m in range(1, 17):
        bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        for i, j in comparator_schedule(m):
            assert 0 <= i < j < m
            bits[:, i], bits[:, j] = (np.minimum(bits[:, i], bits[:, j]),
                                      np.maximum(bits[:, i], bits[:, j]))
        assert (np.diff(bits, axis=1) >= 0).all(), f"m={m} left a row unsorted"


# the packed key drops tiebreak bits 0..1 and the sorts overwrite the next
# ceil(log2 m) with the wire index, so tests space values above both for
# m <= 16
SPACING = 2 + 4


def test_batcher_sorts_every_permutation_of_eight():
    for perm in itertools.permutations(range(8)):
        items = [SortItem(0, value << SPACING, payload_ref=value)
                 for value in perm]
        batcher_sort(items)
        assert [item.payload_ref for item in items] == sorted(perm), f"failed on {perm}"


def test_batcher_sorts_non_power_of_two_sizes():
    gen = np.random.Generator(np.random.PCG64(8))
    for size in (1, 2, 3, 5, 6, 7, 9, 12):
        for _ in range(40):
            keys = gen.integers(0, 50, size=size)
            items = [SortItem(int(k) % 3, int(k) << SPACING, payload_ref=i)
                     for i, k in enumerate(keys)]
            want = sorted((item.sort_class, item.tiebreak) for item in items)
            batcher_sort(items)
            got = [(item.sort_class, item.tiebreak) for item in items]
            assert got == want


def test_batcher_class_dominates_tiebreak():
    items = [
        SortItem(2, 0),
        SortItem(0, (1 << 62) - 1),
        SortItem(1, 5 << 2),
    ]
    batcher_sort(items)
    assert [item.sort_class for item in items] == [0, 1, 2]


def test_batcher_exchange_hook_sees_fixed_schedule():
    touched = []
    items = [SortItem(0, v << 2) for v in (3, 1, 2, 0)]
    batcher_sort(items, on_exchange=lambda i, j, flag: touched.append((i, j)))
    assert tuple(touched) == comparator_schedule(4)


@pytest.fixture(scope="module")
def perms():
    """sort_network_perm with oprim._SORT_MIN_WIDTH patched to 2 and to 2^30:
    the row sort at every width, then the comparator network at every power
    of two (every other width sorts under both)."""
    def at(threshold):
        def perm_of(skey):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oprim, "_SORT_MIN_WIDTH", threshold)
                return sort_network_perm(skey)
        return perm_of
    return at(2), at(1 << 30)


# the powers of two up to 16, where either branch may run, and widths
# between them, which always sort
WIDTHS = (2, 3, 4, 5, 6, 7, 8, 10, 12, 16)


def test_sort_network_perm_matches_python_sort(perms):
    gen = np.random.Generator(np.random.PCG64(21))
    for m in WIDTHS:
        for _ in range(30):
            keys = gen.integers(0, 1 << 63, size=(5, m), dtype=np.uint64)
            for perm_of in perms:
                perm = perm_of(keys)
                sorted_rows = np.take_along_axis(keys, perm, axis=1)
                for row in range(5):
                    assert sorted_rows[row].tolist() == sorted(keys[row].tolist())


def test_sort_network_perm_is_a_permutation(perms):
    for m in WIDTHS:
        keys = np.zeros((3, m), dtype=np.uint64)  # all ties
        for perm_of in perms:
            perm = perm_of(keys)
            for row in perm:
                assert sorted(row.tolist()) == list(range(m))


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 16, 32])
def test_sort_network_perm_sorts_from_width_eight(monkeypatch, m):
    # the choice is a function of the row width alone, never of rows or keys:
    # the network (the only caller of comparator_schedule) at the powers of
    # two below 8, the sort from 8 and at every other width
    calls = []
    monkeypatch.setattr(
        oprim, "comparator_schedule",
        lambda width: calls.append(width) or comparator_schedule(width))
    for rows in (1, 8192, 8193):
        keys = np.zeros((rows, m), dtype=np.uint64)
        assert (sort_network_perm(keys) == np.arange(m)).all()
    assert calls == ([m] * 3 if m in (2, 4) else [])


@pytest.mark.parametrize("m", range(2, 17))
def test_sort_network_perm_is_a_stable_argsort_at_every_width(monkeypatch,
                                                             perms, m):
    # keys from a pool of 3 above the low ceil(log2 m) bits, random below:
    # ties in almost every row, which only wire order can break
    log_m = (m - 1).bit_length()
    gen = np.random.Generator(np.random.PCG64(100 + m))
    keys = (gen.integers(0, 3, size=(300, m), dtype=np.uint64)
            << np.uint64(log_m)) | gen.integers(0, 1 << log_m, size=(300, m),
                                                dtype=np.uint64)
    want = np.argsort(keys >> np.uint64(log_m), axis=1, kind="stable")
    calls = []
    monkeypatch.setattr(
        oprim, "comparator_schedule",
        lambda width: calls.append(width) or comparator_schedule(width))
    for perm_of in perms:
        assert np.array_equal(perm_of(keys), want)
    # a width that is not a power of two sorts under both thresholds
    assert calls == ([m] if (m & (m - 1)) == 0 else [])


# row counts around the stage kernel's row block at m = 8 (prn._BLOCK_WORDS
# words, 8192 rows): one row, one short of a block, a full block, one past it
@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from(WIDTHS),
       rows=st.sampled_from([1, 8191, 8192, 8193]),
       distinct=st.sampled_from([1, 3, 1 << 64]),
       sliced=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sort_network_perm_matches_sequential_network(perms, m, rows, distinct,
                                                      sliced, seed):
    # the compared bits are the ones above ceil(log2 m); distinct=1 makes
    # them equal across every row, 3 makes ties in almost every row.  The low
    # bits are random and must not matter.  Once the wire index makes the
    # keys distinct, the network, run a column pair at a time, gives the
    # stable sort on the compared bits, and so does a plain row sort.
    log_m = (m - 1).bit_length()
    gen = np.random.Generator(np.random.PCG64(seed))
    high = gen.integers(0, distinct, size=(rows, 2 * m), dtype=np.uint64,
                        endpoint=False)
    keys = (high << np.uint64(log_m)) | gen.integers(
        0, 1 << log_m, size=(rows, 2 * m), dtype=np.uint64)
    keys = keys[:, ::2] if sliced else np.ascontiguousarray(keys[:, :m])
    assert keys.flags.c_contiguous != sliced
    before = keys.copy()
    want = np.argsort(keys >> np.uint64(log_m), axis=1, kind="stable")
    for perm_of in perms:
        perm = perm_of(keys)
        assert perm.dtype == np.int64 and perm.shape == (rows, m)
        assert perm.flags.c_contiguous
        assert np.array_equal(perm, want)
        assert np.array_equal(keys, before), "input must not be modified"
        if distinct == 1:
            assert (perm == np.arange(m)).all(), "ties keep wire order"


@pytest.mark.parametrize("m", [8, 16, 32, 64, 128])
def test_sort_network_perm_brings_every_column_home(monkeypatch, m):
    # the network's compare-exchanges leave some columns in other columns'
    # buffers from m = 8 on, along one chain, and from m = 64 also in cycles;
    # each must end in its own column of perm
    monkeypatch.setattr(oprim, "_SORT_MIN_WIDTH", 1 << 30)
    log_m = (m - 1).bit_length()
    gen = np.random.Generator(np.random.PCG64(m))
    keys = gen.integers(0, 1 << 63, size=(40, m), dtype=np.uint64)
    want = np.argsort(keys >> np.uint64(log_m), axis=1, kind="stable")
    perm = sort_network_perm(keys)
    assert perm.flags.c_contiguous and np.array_equal(perm, want)


@pytest.mark.parametrize("m", WIDTHS)
def test_sort_network_perm_matches_batcher_sort_on_ties(perms, m):
    # classes and tiebreaks from pools of 3, so most rows tie in every bit
    gen = np.random.Generator(np.random.PCG64(m))
    cls = gen.integers(0, 3, size=(200, m), dtype=np.uint64)
    tie = gen.choice(np.array([5, 1 << 40, (1 << 64) - 1], dtype=np.uint64),
                     size=(200, m))
    got = [perm_of(sort_key(cls, tie)) for perm_of in perms]
    for row in range(200):
        items = [SortItem(int(cls[row, w]), int(tie[row, w]), payload_ref=w)
                 for w in range(m)]
        batcher_sort(items)
        for perm in got:
            assert [item.payload_ref for item in items] == perm[row].tolist()

