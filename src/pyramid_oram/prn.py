"""Probabilistic routing network: log2(n) stages of oblivious bucket repartition.

Stage s pairs up the buckets whose indices differ only in bit s-1 and
repartitions each pair: slots tagged for routing move to the pair side matching
bit s-1 of their destination, untagged slots float.  When more than c slots
compete for one side, a uniformly random c of them win and the rest are
retagged false (they stay wherever they land and are no longer routed).  After
stage s every tagged slot agrees with its destination on the lowest s bits, so
after all stages it sits exactly in its destination bucket.

route() tags the real slots on entry and reports, on its RouteStats, the
real slots that end untagged as an (n, c) mask.  Those are exactly the reals
outside their destination bucket: a slot retagged at stage s sits on the
wrong side of bit s-1, and no later stage moves a slot across that bit.  The
destinations are only read, by route(), route_reference() and route_census()
alike, after one shared check.

A repartition reads both buckets, sorts the 2c slots by (side-class, random
tiebreak) into the order a fixed comparator network gives (computed by
oprim.sort_network_perm), retags the misplaced, and writes both buckets back.
The pair schedule is a function of n alone: (n/2)*log2(n) repartitions, pairs
in ascending order of the lower index, written once, by stage_pairs().

One stage kernel, _run_stages(), runs the stages over a batch of tables at
once: every pair of a stage, in every table of the batch, in one pass.  It
carries only what the network reads, each slot's tag and destination, plus
a slot id when the slot contents must follow, packed into one word per
slot.  The words stay in the current stage's pair order, rows of 2c words,
and a stage runs in row order over row blocks of at most _BLOCK_WORDS words
(whole rows, at least one): 8192 rows at the store's c = 4, 16384 at the
spill census's c = 2.
Each block draws its own tiebreaks, which together are the words of one
draw per stage, builds each word's sort key from the word itself by shifts,
sorts the keys in their own row-major layout, gathers the words into sorted
order in a second word buffer, and clears the misplaced tags there.  One
take along the bucket axis then moves the stage's words back into the first
buffer in the next stage's pair order (the last stage's take restores the
natural order), c words at a time, by an index that depends on n and the
stage alone and is built once.  One block's full-shape constants are built
once per block shape and shared, read-only; two word buffers and one
block's scratch are made per call: no step broadcasts a short row.
route_census() runs it on tags and destinations over many trials and
returns only the per-stage counts, the census behind the spill statistics;
route() runs it on one table with slot ids, and after the last stage moves
each cell's key once, to where its slot id ended up, and its payload row
too if a real holds the cell or held it; the other rows stay unwritten.
The sort key's layout is oprim's: the kernel hands it each word's class.

repartition() and route_reference() are the slot-at-a-time oracle: a
RoutingSlot is one cell's key, payload, destination and tag, read off the
table's arrays on entry; keys and payloads are written back on exit.  They
draw tiebreaks in the same row-major order as the kernel and sort the same
keys, which oprim makes distinct by their wire index, so under one seed
route() is bit-identical to route_reference(), colliding tiebreaks included,
spilled masks too; the suite asserts both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .core import KEY_SENTINEL, Rng, _require, debug_checks_enabled, is_power_of_two
from .oprim import SortItem, batcher_sort, sort_key_into, sort_network_perm
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
    """Per-route instrumentation: repartition count and per-stage spills,
    and spilled, the (n, c) mask of the real slots that end outside their
    destination bucket."""

    repartitions: int
    stage_spills: list[int]
    stage_live: list[int]
    spilled: np.ndarray = field(compare=False, repr=False)

    @property
    def total_spilled(self) -> int:
        return sum(self.stage_spills)


def stage_count(n: int) -> int:
    _require(is_power_of_two(n), "table size must be a power of two")
    return n.bit_length() - 1


def stage_pairs(n: int, stage: int) -> np.ndarray:
    """Bucket pairs of one stage, an (n/2, 2) array of (lower, upper) rows
    ascending by lower index.

    Stage s (1-based) pairs indices differing exactly in bit s-1.
    """
    _require(1 <= stage <= stage_count(n), "stage out of range")
    bit = stage - 1
    idx = np.arange(n)
    lows = idx[(idx >> bit) & 1 == 0]
    return np.column_stack([lows, lows | (1 << bit)])


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


def _check_dests(dests, shape: tuple[int, ...]) -> tuple[int, int]:
    """n, c of slots shaped (..., n, c), n a power of two and c >= 1, whose
    destinations dests are a numpy integer array of that shape in [0, n)."""
    *_, n, c = shape
    _require(is_power_of_two(n), "bucket count n must be a power of two")
    _require(c >= 1, "bucket capacity c must be at least 1")
    # a float would be truncated on the way in
    _require(isinstance(dests, np.ndarray) and np.issubdtype(dests.dtype, np.integer),
             "destinations must be numpy arrays of integers")
    _require(dests.shape == shape, "destinations must be shaped like the slots")
    # two reductions, and no temporary the size of dests
    _require(not dests.size or (dests.min() >= 0 and dests.max() < n),
             f"destinations must lie in [0, {n})")
    return n, c


def _pack(tag: np.ndarray, dest: np.ndarray, slot: np.ndarray | None) -> np.ndarray:
    """The (batch, n, c) slots' words, in the narrowest unsigned type that
    holds them: tag in bit 0, destination above it, slot id on top."""
    _, n, c = tag.shape
    dest_bits = (n - 1).bit_length()
    slot_bits = 0 if slot is None else (n * c - 1).bit_length()
    _require(1 + dest_bits + slot_bits <= 64, "slot ids too wide to carry")
    kind = np.min_scalar_type((1 << (1 + dest_bits + slot_bits)) - 1)
    word = dest.astype(kind, order="C")
    word <<= 1
    word |= tag
    if slot is not None:
        ids = slot.astype(kind)
        ids <<= 1 + dest_bits
        word |= ids
    return word


def _unpack_slot(word: np.ndarray, n: int) -> np.ndarray:
    """The slot-id field of _pack's words for n buckets."""
    return word >> (1 + (n - 1).bit_length())


def _stage_key(word: np.ndarray, bit: int, rng: Rng, klass: np.ndarray,
               mask: np.ndarray, class_word: np.ndarray) -> np.ndarray:
    """Stage `bit`'s sort key of each word, sort_key(class, fresh tiebreak),
    in the tiebreaks' buffer; the other arrays are scratch of word's shape,
    class_word the uint64 one that sort_key_into takes the classes in."""
    # class (destination bit, 1) & (tag, untagged): 2 or 0 tagged, 1 untagged
    np.right_shift(word, bit, out=klass)
    klass |= 1
    np.bitwise_and(word, 1, out=mask)
    mask += 1
    klass &= mask
    np.copyto(class_word, klass)
    return sort_key_into(rng.bits64(word.shape), class_word)


# words per block of the stage kernel: a block's scratch (tiebreaks, class
# words, sort key, permutation) stays cache-sized and is reused from one
# block to the next instead of faulting in fresh pages every stage.  Bounded
# by words, not rows, so every row width gets the same working set, and a
# narrow census block makes fewer numpy calls per stage
_BLOCK_WORDS = 65536


def _sort_block(word: np.ndarray, bit: int, rng: Rng, out: np.ndarray,
                base: np.ndarray, wire: np.ndarray, *scratch: np.ndarray) -> None:
    """Stage `bit`'s (rows, 2c) words, each row gathered into sorted order in
    out; base and wire hold each word's row start and column, at full shape,
    and the permutation goes to the class words, spent once the key is built."""
    perm = sort_network_perm(_stage_key(word, bit, rng, *scratch), wire, out=scratch[-1])
    perm += base
    # the indices lie in range by construction; "raise" would buffer out
    word.take(perm, out=out, mode="wrap")


def _clear_misplaced(word: np.ndarray, bit: int, side: np.ndarray,
                     misplaced: np.ndarray) -> None:
    """Clear, in place, the tag of every sorted word off its destination
    side, and write the cleared tags, as 0/1 words, into misplaced."""
    np.right_shift(word, bit + 1, out=misplaced)
    misplaced ^= side
    misplaced &= word
    misplaced &= 1
    word ^= misplaced


def _pair_position(n: int, bit: int) -> np.ndarray:
    """Each bucket's position in stage `bit`'s pair order: twice the rank of
    its pair's lower index among the lower indices, plus its own bit."""
    b = np.arange(n)
    low = b & ((1 << bit) - 1)
    return (b >> (bit + 1) << (bit + 1)) | (low << 1) | ((b >> bit) & 1)


@functools.cache
def _reorder_index(n: int, bit: int) -> np.ndarray:
    """The take index from stage `bit`'s pair order to the next stage's, or
    to the natural order after the last stage, within each run of g =
    min(n, 4 << bit) buckets, which both orders keep in place: entry q is
    where, in stage bit's order, the bucket sits that goes to position q of
    its run.  A function of (n, bit) alone, so it is built once; per n the
    indices hold about 3n entries, against n log2 n for whole tables."""
    g = min(n, 4 << bit)
    after = np.arange(g) if g == 2 << bit else _pair_position(g, bit + 1)
    index = np.empty(g, dtype=np.intp)
    index[after] = _pair_position(g, bit)
    index.flags.writeable = False
    return index


@functools.cache
def _block_constants(step: int, c: int, kind: np.dtype,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block of `step` rows of 2c words' full-shape constants, read-only:
    each word's pair side (in the words' type `kind`), row start and column
    (uint64).  Cached per shape: route and route_census share them."""
    m = 2 * c
    wire = np.arange(m, dtype=np.uint64)[None].repeat(step, axis=0)
    constants = ((wire >= c).astype(kind),
                 np.arange(0, step * m, m).repeat(m).reshape(step, m), wire)
    for a in constants:
        a.flags.writeable = False
    return constants


def _per_table(flags: np.ndarray, batch: int) -> np.ndarray | int:
    """The count of nonzero entries in each table of a batch's 0/1 array."""
    if batch == 1:  # a flat count costs a fraction of an axis reduction
        return np.count_nonzero(flags)
    # in the flags' own type where the counts fit: a cast is 4x slower
    kind = np.promote_types(flags.dtype, np.min_scalar_type(flags.size // batch))
    return flags.reshape(batch, -1).sum(axis=1, dtype=kind).astype(np.int64)


def _run_stages(word: np.ndarray, rng: Rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stage kernel over a C-contiguous (batch, n, c) array of packed
    words (_pack).

    Between stages the words are held in the current stage's pair order,
    rows of 2c words (the low bucket's slots first, pairs ascending by lower
    index); stage 0's is the natural order.  A stage runs over row blocks of
    at most _BLOCK_WORDS words (_BLOCK_WORDS // 2c rows, at least one), in
    row order, and each block draws its own (rows, 2c) tiebreaks: together
    the words of one (batch * n/2, 2c) draw, in the same order.  Each block
    is sorted into a second word buffer, made once per call; its spent
    unsorted words then hold its cleared tags until the stage has counted
    them.  The stage's pair-order change is one take of the sorted words
    along the bucket axis, c words at a time, back into the first buffer,
    by the cached _reorder_index(n, bit) applied to every run of its size.
    Returns the words in natural order, in the buffer passed in, and the
    per-stage spills and live tags, each (batch, stages).
    """
    batch, n, c = word.shape
    stages = stage_count(n)
    m, rows = 2 * c, batch * (n // 2)
    spills = np.zeros((batch, stages), dtype=np.int64)
    if not rows:  # n=1 or an empty batch: no stage moves a word
        return word, spills, spills.copy()
    flat, out = word.reshape(rows, m), np.empty((rows, m), dtype=word.dtype)
    step = min(rows, max(1, _BLOCK_WORDS // m))
    # one block's full-shape pair sides, row starts and columns, and its key
    # scratch, which is this call's own
    shared = (*_block_constants(step, c, word.dtype),
              *np.empty((2, step, m), dtype=word.dtype),
              np.empty((step, m), dtype=np.uint64))
    blocks = [(flat[r0:r0 + step], out[r0:r0 + step],
               *(a[:rows - r0] for a in shared)) for r0 in range(0, rows, step)]
    count = _per_table(np.bitwise_and(flat, 1, out=out), batch)
    for bit in range(stages):
        for words, sorted_words, side, *scratch in blocks:
            _sort_block(words, bit, rng, sorted_words, *scratch)
            _clear_misplaced(sorted_words, bit, side, words)
        spills[:, bit] = _per_table(flat, batch)
        index = _reorder_index(n, bit)
        runs = (-1, index.size, c)
        # in range by construction, as in _sort_block: "raise" would buffer
        out.reshape(runs).take(index, axis=1, out=word.reshape(runs), mode="wrap")
    live = np.asarray(count).reshape(-1, 1) - spills.cumsum(axis=1) + spills
    return word, spills, live


def route_census(tag: np.ndarray, dest: np.ndarray, rng: Rng,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-stage spill counts of route()'s stage kernel over a batch of tables.

    tag (bool) and dest (integers in [0, n)) are (batch, n, c) arrays, each
    table's tagged slots and their destinations; both are only read.
    Returns (spills, live), each (batch, stages) int64: the tags cleared at
    each stage and those entering it; an empty batch gives (0, stages).
    """
    _require(isinstance(tag, np.ndarray) and tag.dtype == np.bool_,
             "tags must be boolean numpy arrays")
    _require(tag.ndim == 3, "tag must be shaped (batch, n, c)")
    _check_dests(dest, tag.shape)
    _, spills, live = _run_stages(_pack(tag, dest, None), rng)
    return spills, live


def route(table, dests: np.ndarray, rng: Rng,
          recorder: TraceRecorder | None = None,
          region: int | None = None) -> RouteStats:
    """Route every real slot of the (n, c) SlotArray `table`, in place.

    `dests` is an (n, c) integer array, each cell's destination bucket; it
    is checked and only read.  Consumes one 64-bit tiebreak per slot per
    stage, in pair order, regardless of contents.  The stage kernel (the one
    route_census runs) moves only tags, destinations and slot ids; then
    every key, and each real's payload row, moves once to where its slot id
    ended up, through the table itself (a view such as Zht.tables[j] routes
    in place).  Every dummy's payload row must be zero, as the store writes
    it (refused otherwise under debug checks): a cell that gets a dummy is
    written only where a real left, with that zero row.  The returned
    stats' spilled mask is the real slots that end untagged, which are the
    reals that end outside their destination bucket.
    """
    _require(len(table.shape) == 2, "a routed table is shaped (n, c)")
    n, c = _check_dests(dests, table.shape)
    if region is None:
        region = table_region(0, 0)
    real = table.key != KEY_SENTINEL
    if debug_checks_enabled():
        _require(not table.payload[~real].any(), "a dummy slot holds payload bytes")
    # tagged: the real slots; slot ids: each cell's flat index
    word, spills, live = _run_stages(_pack(
        real[None], dests[None], np.arange(n * c).reshape(1, n, c)), rng)
    src = _unpack_slot(word[0], n)
    table.key[...] = table.key.reshape(-1).take(src)
    now_real = table.key != KEY_SENTINEL
    # the cells that hold a real or held one: where a real left, the dummy
    # that came brings its zero row
    moved = real | now_real
    table.payload[moved] = table.payload.reshape(n * c, -1).take(src[moved], axis=0)
    if recorder is not None and recorder.enabled:
        for stage in range(1, spills.shape[1] + 1):
            recorder.record(region, stage_pairs(n, stage))
    return RouteStats((n // 2) * spills.shape[1], spills[0].tolist(),
                      live[0].tolist(), now_real & (word[0] & 1 == 0))


def route_reference(table, dests: np.ndarray, rng: Rng,
                    recorder: TraceRecorder | None = None,
                    region: int | None = None) -> RouteStats:
    """Slot-at-a-time route; bit-identical to route() under the same seed.

    Each bucket is a list of RoutingSlots from the table's read on entry to
    the write-back of its keys and payloads on exit; dests is only read.
    """
    _require(len(table.shape) == 2, "a routed table is shaped (n, c)")
    n, c = _check_dests(dests, table.shape)
    if region is None:
        region = table_region(0, 0)
    buckets = [[RoutingSlot(key, row.tobytes(), dest, key != KEY_SENTINEL)
                for key, row, dest in zip(keys, rows, targets)]
               for keys, rows, targets in zip(table.key.tolist(), table.payload,
                                              dests.tolist())]
    stage_spills: list[int] = []
    stage_live: list[int] = []
    repartitions = 0
    for stage in range(1, stage_count(n) + 1):
        stage_live.append(sum(rs.tag for bucket in buckets for rs in bucket))
        stage_spills.append(0)
        for lo, hi in stage_pairs(n, stage):
            buckets[lo], buckets[hi], spills = repartition(buckets[lo], buckets[hi],
                                                           stage, rng)
            stage_spills[-1] += spills
            repartitions += 1
            if recorder is not None:
                recorder.record(region, [lo, hi])
    for b, bucket in enumerate(buckets):
        table.key[b] = [rs.key for rs in bucket]
        table.payload[b] = [np.frombuffer(rs.payload, dtype=np.uint8) for rs in bucket]
    spilled = [[rs.key != KEY_SENTINEL and not rs.tag for rs in bucket]
               for bucket in buckets]
    return RouteStats(repartitions, stage_spills, stage_live,
                      np.array(spilled, dtype=bool).reshape(n, c))
