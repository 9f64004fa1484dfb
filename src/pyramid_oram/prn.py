"""Probabilistic routing network: log2(n) stages of oblivious bucket repartition.

Stage s pairs up the buckets whose indices differ only in bit s-1 and
repartitions each pair: slots tagged for routing move to the pair side matching
bit s-1 of their destination, untagged slots float.  When more than c slots
compete for one side, a uniformly random c of them win and the rest are
retagged false (they stay wherever they land and are no longer routed).  After
stage s every tagged slot agrees with its destination on the lowest s bits, so
after all stages it sits exactly in its destination bucket.

Tags are not stored: route() tags the real slots on entry and drops the tags
on exit, losing nothing, since a slot ends tagged iff it started tagged and
sits in its destination bucket (no stage after s moves a slot across bit s-1).

A repartition reads both buckets, sorts the 2c slots by (side-class, random
tiebreak) into the order a fixed comparator network gives (computed by
oprim.sort_network_perm), retags the misplaced, and writes both buckets back.
The pair schedule is a function of n alone: (n/2)*log2(n) repartitions, pairs
in ascending order of the lower index.

One kernel, route_census(), runs the stages over a batch of tables at once:
every pair of a stage, in every table of the batch, in one pass.  It carries
only what the network reads, each slot's tag and destination, plus a slot id
when the slot contents must follow, packed into one word per slot.  On tags
and destinations alone, over many trials, it is the census behind the spill
statistics; route() is the batch-1 case with slot ids, which after the last
stage moves each cell's key and payload once, to where its slot id ended up.

repartition() and route_reference() are the slot-at-a-time oracle: a
RoutingSlot is one cell's key, payload, destination and tag, read off and
written back to the table's arrays.  They draw tiebreaks in the same
row-major order as the kernel and sort the same keys, which oprim makes
distinct by their wire index, so under one seed route() is bit-identical to
route_reference(), colliding tiebreaks included; the suite asserts both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import KEY_SENTINEL, InvalidParameterError, Rng, _require, is_power_of_two
from .oprim import PAD_KEY, SortItem, batcher_sort, sort_key, sort_network_perm
from .trace import TraceRecorder, table_region


@dataclass(frozen=True)
class RoutingSlot:
    """One cell of a routed table: key, payload bytes, destination and tag."""

    key: int
    payload: bytes
    dest: int
    tag: bool


@dataclass
class RouteStats:
    """Per-route instrumentation: repartition count and per-stage spills."""

    repartitions: int
    stage_spills: list[int]
    stage_live: list[int]

    @property
    def total_spilled(self) -> int:
        return sum(self.stage_spills)


def stage_count(n: int) -> int:
    _require(is_power_of_two(n), "table size must be a power of two")
    return n.bit_length() - 1


def stage_pairs(n: int, stage: int) -> list[tuple[int, int]]:
    """Bucket pairs of one stage, ascending by lower index.

    Stage s (1-based) pairs indices differing exactly in bit s-1.
    """
    _require(1 <= stage <= stage_count(n), "stage out of range")
    bit = stage - 1
    idx = np.arange(n)
    lows = idx[(idx >> bit) & 1 == 0]
    return [(int(lo), int(lo | (1 << bit))) for lo in lows]


def repartition(bucket_a: list[RoutingSlot], bucket_b: list[RoutingSlot],
                bit_position: int, rng: Rng,
                ) -> tuple[list[RoutingSlot], list[RoutingSlot], int]:
    """Reference single-pair repartition on bit `bit_position` (1-based).

    Returns the new (bucket_a, bucket_b, spill_count).  Tagged slots whose
    destination bit is 0 end up in bucket_a, bit 1 in bucket_b; excess
    competitors (uniformly chosen via the random tiebreaks) are retagged false.
    """
    c = len(bucket_a)
    _require(c == len(bucket_b), "bucket capacity mismatch")
    _require(bit_position >= 1, "bit positions are 1-based")
    combined = list(bucket_a) + list(bucket_b)
    ties = rng.bits64(2 * c)
    shift = bit_position - 1
    items = []
    for pos, rs in enumerate(combined):
        bit = (rs.dest >> shift) & 1
        klass = 1 + int(rs.tag) * (2 * bit - 1)
        items.append(SortItem(klass, int(ties[pos]), payload_ref=pos))
    batcher_sort(items)
    out: list[RoutingSlot] = []
    spills = 0
    for pos_out, item in enumerate(items):
        rs = combined[item.payload_ref]
        side = 1 if pos_out >= c else 0
        bit = (rs.dest >> shift) & 1
        if rs.tag and bit != side:
            rs = replace(rs, tag=False)
            spills += 1
        out.append(rs)
    return out[:c], out[c:], spills


def _check_route(table, dests) -> tuple[int, int]:
    """n, c of a table to route: (n, c) slots, n a power of two, c >= 1,
    and dests an (n, c) int64 array of buckets in [0, n)."""
    _require(len(table.shape) == 2, "a routed table is shaped (n, c)")
    n, c = table.shape
    _require(is_power_of_two(n), "bucket count n must be a power of two")
    _require(c >= 1, "bucket capacity c must be at least 1")
    # a converted copy would be permuted instead, unseen by the caller
    _require(isinstance(dests, np.ndarray) and dests.dtype == np.int64,
             "dests must be an int64 array: it is permuted in place")
    _require(dests.shape == table.shape, "dests must be shaped like the table")
    _require(0 <= dests.min() and dests.max() < n,
             f"destinations must lie in [0, {n})")
    return n, c


def _stage_perm(cls_rows: np.ndarray, tie_rows: np.ndarray) -> np.ndarray:
    """Sorting permutation for (rows, 2c) class/tiebreak arrays, with padding."""
    rows, m = cls_rows.shape
    skey = sort_key(cls_rows, tie_rows)
    size = 1 << (m - 1).bit_length()
    if size != m:
        pad = np.full((rows, size - m), PAD_KEY, dtype=np.uint64)
        skey = np.concatenate([skey, pad], axis=1)
    perm = sort_network_perm(skey)
    if size != m:
        # every row keeps exactly its m real entries, in sorted order
        perm = perm[perm < m].reshape(rows, m)
    return perm


def route_census(tag: np.ndarray, dest: np.ndarray, rng: Rng,
                 slot: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The routing network over a batch of tables: (batch, n, c) arrays.

    Over many trials of tags and destinations alone it is the census behind
    the per-stage spill statistics; route() is its batch-1 case.  tag (bool)
    and dest evolve in place exactly as route() evolves one table's tags and
    destinations; slot, unless None, holds ids in [0, n*c) and is carried
    along in place, so that afterwards slot[b, i, s] is the id the slot now
    at (i, s) started with.  The three travel packed in one word per slot
    (tag in bit 0, destination above it, slot id on top), in the narrowest
    unsigned type that holds them.  Stage `bit` reads
    each pair's 2c words through a reshape view (low bucket's slots first,
    pairs ascending by lower index), sorts them by (side class, tiebreak),
    clears the tag of the misplaced and writes them back through the same
    view.  Tiebreaks are drawn per stage as one (batch, n/2, 2c) block.
    Returns (spills, live), each (batch, stages).
    """
    if tag.ndim != 3:
        raise InvalidParameterError("tag must be shaped (batch, n, c)")
    if dest.shape != tag.shape or (slot is not None and slot.shape != tag.shape):
        raise InvalidParameterError("tag, dest and slot shapes must match")
    if tag.dtype != np.bool_:
        raise InvalidParameterError("tag must be boolean")
    batch, n, c = tag.shape
    stages = stage_count(n)
    _require(c >= 1, "bucket capacity c must be at least 1")
    if dest.size and (dest.min() < 0 or dest.max() >= n):
        raise InvalidParameterError(f"destinations must lie in [0, {n})")
    dest_bits = (n - 1).bit_length()
    slot_bits = 0 if slot is None else (n * c - 1).bit_length()
    _require(1 + dest_bits + slot_bits <= 64, "slot ids too wide to carry")
    kind = np.min_scalar_type((1 << (1 + dest_bits + slot_bits)) - 1)
    word = (dest.astype(kind) << 1) | tag
    if slot is not None:
        word |= slot.astype(kind) << (1 + dest_bits)
    m = 2 * c
    rows = batch * (n // 2)
    side = np.repeat(np.array([0, 1], dtype=kind), c)
    base = (np.arange(rows) * m)[:, None]
    spills = np.zeros((batch, stages), dtype=np.int64)
    live = np.zeros((batch, stages), dtype=np.int64)
    count = tag.sum(axis=(1, 2))
    for bit in range(stages):
        live[:, bit] = count
        view = word.reshape(batch, n >> (bit + 1), 2, 1 << bit, c).transpose(
            0, 1, 3, 2, 4)
        pair = view.reshape(rows, m)
        tagged = pair & 1
        to_high = (pair >> (bit + 1)) & 1
        # untagged slots float (class 1); tagged ones sort to their side
        cls = 1 - tagged + 2 * (tagged & to_high)
        ties = rng.bits64((batch, n // 2, m)).reshape(rows, m)
        flat = (_stage_perm(cls, ties) + base).reshape(-1)
        pair = pair.reshape(-1)[flat].reshape(rows, m)
        misplaced = pair & 1 & ((pair >> (bit + 1)) ^ side)
        pair ^= misplaced
        spills[:, bit] = misplaced.reshape(batch, -1).sum(axis=1)
        view[...] = pair.reshape(view.shape)
        count = count - spills[:, bit]
    tag[...] = word & 1
    dest[...] = (word >> 1) & ((1 << dest_bits) - 1)
    if slot is not None:
        slot[...] = word >> (1 + dest_bits)
    return spills, live


def route(table, dests: np.ndarray, rng: Rng,
          recorder: TraceRecorder | None = None,
          region: int | None = None) -> RouteStats:
    """Route every real slot of the (n, c) SlotArray `table`, in place.

    `dests` is an (n, c) int64 destination array that travels with the slots
    (it is permuted in place alongside them).  Consumes one 64-bit tiebreak
    per slot per stage, in pair order, regardless of contents.  The network
    moves only tags, destinations and slot ids; keys and payloads are then
    moved once, to where their slot ids ended up.  A real slot spilled iff
    it ends outside its destination bucket.
    """
    n, c = _check_route(table, dests)
    if region is None:
        region = table_region(0, 0)
    slot = np.arange(n * c).reshape(1, n, c)
    tag = (table.key != KEY_SENTINEL)[None]
    spills, live = route_census(tag, dests[None], rng, slot)
    src = slot[0]
    table.key[...] = table.key.reshape(-1)[src]
    table.payload[...] = table.payload.reshape(n * c, -1)[src]
    if recorder is not None and recorder.enabled:
        idx = np.arange(n)
        for bit in range(spills.shape[1]):
            lows = idx[(idx >> bit) & 1 == 0]
            recorder.record(region, np.column_stack([lows, lows | (1 << bit)]))
    return RouteStats((n // 2) * spills.shape[1], spills[0].tolist(),
                      live[0].tolist())


def route_reference(table, dests: np.ndarray, rng: Rng,
                    recorder: TraceRecorder | None = None,
                    region: int | None = None) -> RouteStats:
    """Slot-at-a-time route; bit-identical to route() under the same seed."""
    n, c = _check_route(table, dests)
    if region is None:
        region = table_region(0, 0)
    tags = table.key != KEY_SENTINEL
    stage_spills: list[int] = []
    stage_live: list[int] = []
    repartitions = 0
    for stage in range(1, stage_count(n) + 1):
        stage_live.append(int(tags.sum()))
        spilled = 0
        for lo, hi in stage_pairs(n, stage):
            bucket_a, bucket_b = (
                [RoutingSlot(int(table.key[b, s]), table.payload[b, s].tobytes(),
                             int(dests[b, s]), bool(tags[b, s]))
                 for s in range(c)]
                for b in (lo, hi)
            )
            new_a, new_b, spills = repartition(bucket_a, bucket_b, stage, rng)
            for s in range(c):
                _write_routing_slot(table, dests, tags, lo, s, new_a[s])
                _write_routing_slot(table, dests, tags, hi, s, new_b[s])
            spilled += spills
            repartitions += 1
            if recorder is not None:
                recorder.record(region, [lo, hi])
        stage_spills.append(spilled)
    return RouteStats(repartitions, stage_spills, stage_live)


def _write_routing_slot(table, dests, tags, b: int, s: int,
                        rs: RoutingSlot) -> None:
    table.key[b, s] = rs.key
    table.payload[b, s] = np.frombuffer(rs.payload, dtype=np.uint8)
    dests[b, s] = rs.dest
    tags[b, s] = rs.tag
