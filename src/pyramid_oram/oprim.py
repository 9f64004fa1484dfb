"""Branchless swap and sorting-network primitives.

Swaps are computed with mask arithmetic, and the specified sort is Batcher's
odd-even mergesort, whose compare-exchange schedule is a function of the
input length alone.  The repartition step of the routing network sorts 2c
slots by a (class, tiebreak) key; packing both into one 64-bit word keeps the
comparator a single compare.  The sorts then overwrite the key's low
ceil(log2 m) bits with its wire index, so no two keys are equal: every
comparator network that sorts gives the same permutation, a compare-exchange
moves the key alone, and the permutation is read back from the low bits.

Because the keys are distinct, any sort gives that permutation too, at any
width.  sort_network_perm runs the network on the key columns for rows of
2 or 4 words, and sorts each row of any other width instead: an equal
realisation over 2c private words.  Its running time may depend on the
keys; which buckets are read and written does not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _require, as_int, is_power_of_two

# Sort key layout: class in the top 2 bits, tiebreak below, and the sorts put
# the wire index in the low w = ceil(log2 m) bits.  Tiebreaks are 64-bit
# draws; the 62 - w bits left compared keep collisions at ~2^-(60 - w) per
# pair, and a collision falls back to wire order in every path.
_CLASS_SHIFT = 62
_TIE_SHIFT = 2


@dataclass
class SortItem:
    """Sortable wrapper: 2-bit class, 64-bit random tiebreak, opaque payload ref."""

    sort_class: int
    tiebreak: int
    payload_ref: object = None


def cond_swap(flag, values, i: int, j: int) -> None:
    """Exchange values[i] and values[j] iff flag; both cells are always touched."""
    f = -int(bool(flag))
    d = (values[i] ^ values[j]) & f
    values[i] ^= d
    values[j] ^= d


def sort_key(sort_class, tiebreak):
    """Pack (class, tiebreak) ints into one comparable word; on uint64
    arrays it packs elementwise."""
    return (sort_class << _CLASS_SHIFT) | (tiebreak >> _TIE_SHIFT)


def sort_key_into(tiebreak: np.ndarray, klass: np.ndarray) -> np.ndarray:
    """sort_key(klass, tiebreak) built in tiebreak's uint64 buffer; klass is
    a uint64 scratch buffer of classes, owned by the caller and overwritten.
    Returns tiebreak's buffer."""
    klass <<= _CLASS_SHIFT
    tiebreak >>= _TIE_SHIFT
    tiebreak |= klass
    return tiebreak


@functools.cache
def comparator_schedule(m: int) -> tuple[tuple[int, int], ...]:
    """Compare-exchange pairs of the odd-even mergesort network for size m.

    For any m >= 1: the network on the next power of two, keeping only the
    pairs whose wires are both below m.  Wires from m on would hold +inf,
    and a pair touching one never exchanges, so the kept pairs sort m
    wires.  The schedule depends only on m.
    """
    m = as_int(m, "m")
    _require(m >= 1, "comparator schedule needs a width m >= 1")
    top = 1 << (m - 1).bit_length()

    def merge(lo: int, hi: int, r: int):
        step = r * 2
        if step < hi - lo:
            yield from merge(lo, hi, step)
            yield from merge(lo + r, hi, step)
            yield from ((i, i + r) for i in range(lo + r, hi - r, step))
        else:
            yield (lo, lo + r)

    def sort(lo: int, hi: int):
        if hi - lo >= 1:
            mid = lo + (hi - lo) // 2
            yield from sort(lo, mid)
            yield from sort(mid + 1, hi)
            yield from merge(lo, hi, 1)

    return tuple((i, j) for i, j in sort(0, top - 1) if j < m)


def batcher_sort(items: list[SortItem],
                 on_exchange: Callable[[int, int, bool], None] | None = None) -> None:
    """Sort items in place by (sort_class, tiebreak) with a fixed comparator net.

    Keys are made distinct as in sort_network_perm: each key's low
    ceil(log2 n) bits become its wire index, and items are picked back out
    by the low bits of the sorted keys.  on_exchange, unless None, is called
    for every compare-exchange with (i, j, swapped) in schedule order.
    """
    n = len(items)
    if n <= 1:
        return
    m = 1 << (n - 1).bit_length()
    keys = [(sort_key(it.sort_class, it.tiebreak) & -m) | wire
            for wire, it in enumerate(items)]
    for i, j in comparator_schedule(n):
        flag = keys[i] > keys[j]
        cond_swap(flag, keys, i, j)
        if on_exchange is not None:
            on_exchange(i, j, bool(flag))
    items[:] = [items[key & (m - 1)] for key in keys]


# the narrowest power of two that sort_network_perm sorts rather than run the
# network on: by tools/stage_perm_bench.py, at 8192 rows the sort wins from m = 8
# and the network at m <= 4 (by 3-9x); at 32 rows the sort wins at every m (4-7
# against 7-20 µs at m <= 4), at 512 it no longer does: the crossover is by rows too
_SORT_MIN_WIDTH = 8


def sort_network_perm(skey: np.ndarray, wire: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise sorting permutation of the comparator network, vectorized.

    skey is (rows, m) uint64 of any width m; returns perm (rows, m),
    row-major, the stable sort of each row on the key bits above the low
    ceil(log2 m): those bits are overwritten with the wire index, which makes
    the keys distinct, and perm is read back from them once sorted.  skey is
    left unchanged; wire, if given, holds each column's index at full shape,
    and out, if given, is a C-contiguous (rows, m) uint64 buffer for perm.

    For a power of two m below _SORT_MIN_WIDTH the comparator network runs on
    the strided key columns of a row-major working copy, which becomes perm,
    one compare-exchange of two columns at a time for every row at once, in
    comparator_schedule order: the work done is independent of the data.
    Each writes one output over an input and one to a spare column buffer,
    each to its own column's where it can: m = 2 copies one back, m = 4 none.
    At every other width each row's m distinct words are sorted instead,
    which has the outcome comparator_schedule(m) would have; its running
    time may depend on the keys, but each row's sort touches only that
    row's private words, so no bucket access and no trace event depends on
    them.  The choice depends on m alone, which is public.
    """
    m = skey.shape[1]
    low = np.uint64((1 << (m - 1).bit_length()) - 1)
    work = np.bitwise_and(skey, ~low, out=out, order="C")
    work |= np.arange(m, dtype=np.uint64) if wire is None else wire
    if m >= _SORT_MIN_WIDTH or not is_power_of_two(m):
        work.sort(axis=1)
    else:
        cols = [work[:, k] for k in range(m)] + [np.empty(len(work), np.uint64)]
        at, spare = list(range(m)), m  # each column's buffer; the free one
        for i, j in comparator_schedule(m):
            first, other = (j, i) if spare == j else (i, j)
            keep = other if other in (at[i], at[j]) else at[other]
            a, b = cols[at[i]], cols[at[j]]
            (np.minimum if first == i else np.maximum)(a, b, out=cols[spare])
            (np.maximum if first == i else np.minimum)(a, b, out=cols[keep])
            at[first], at[other], spare = spare, keep, at[i] + at[j] - keep
        while spare != m:  # home the column whose buffer is free, and so on
            cols[spare][...], at[spare], spare = cols[at[spare]], spare, at[spare]
        if at != list(range(m)):  # columns swapped in a cycle, from m = 64
            work = np.column_stack([cols[k] for k in at])
    work &= low
    return work.view(np.int64)
