"""Zigzag hash tables: k tables of n buckets, one hash function per table.

An element's zigzag path is h_1(key), ..., h_k(key), one bucket per table; it
lives in the first bucket along the path with a free slot.  Every operation
touches its full set of buckets whether or not it needs them: searches probe
all k path buckets (no early exit on a hit), throws of non-elements perform one
random fake access per table.  What varies with the data is slot contents, not
which buckets are touched.

A Zht keeps all its slots in one SlotArray of shape (k, n, c): table, bucket,
slot.  tables[j] is a ZhtTable view of row j, so per-table code (routing,
insertion) writes straight into the store, and a search is one gather of the
k path buckets out of it.

Inserts during builds are hot, so tables carry an optional prefix-fill counter:
while a table has only ever been appended to (real prefix, empty suffix), slot
choice is O(1) off a per-bucket counter.  Routing or any slot-level mutation
invalidates it and insertion falls back to scanning the bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DUMMY,
    EMPTY,
    KEY_SENTINEL,
    MAX_REAL_KEY,
    REAL,
    HashFamily,
    InvalidParameterError,
    Rng,
    Slot,
    SlotArray,
    Table,
    _require,
    debug_checks_enabled,
    is_power_of_two,
    path_buckets,
)
from .trace import TraceOp, TraceRecorder, table_region


class ZhtTable(Table):
    """Table with a prefix-fill fast path for build-time insertion."""

    __slots__ = ("prefix_fill",)

    def __init__(self, n: int, c: int, payload_size: int):
        super().__init__(n, c, payload_size)
        self.prefix_fill = np.zeros(n, dtype=np.int32)

    @classmethod
    def row_of(cls, store: SlotArray, j: int) -> "ZhtTable":
        """Table j of a (k, n, c) store, as a view sharing the store's memory."""
        tbl = cls.__new__(cls)
        _, tbl.n, tbl.c = store.shape
        tbl.payload_size = store.payload_size
        tbl.key = store.key[j]
        tbl.state = store.state[j]
        tbl.tag = store.tag[j]
        tbl.payload = store.payload[j]
        tbl.prefix_fill = np.zeros(tbl.n, dtype=np.int32)
        return tbl

    def invalidate_prefix(self) -> None:
        self.prefix_fill = None

    def put(self, idx, slot: Slot) -> None:
        self.invalidate_prefix()
        super().put(idx, slot)

    def clear_to_dummy(self, mask) -> None:
        self.invalidate_prefix()
        super().clear_to_dummy(mask)


@dataclass
class ThrowReport:
    """Outcome of one batch throw.

    spills_per_table[j] counts elements that reached table j and found their
    bucket full (they moved on, or fell off the end at j = k-1); unplaced is
    the number that fell off the end.
    """

    spills_per_table: list[int]
    placed_per_table: list[int]
    unplaced: int

    @property
    def failed(self) -> bool:
        return self.unplaced > 0


class Zht:
    """k-table zigzag hash table over a fixed hash family epoch."""

    def __init__(self, n: int, k: int, c: int, fam: HashFamily, level_id: int = 0,
                 payload_size: int = 56):
        _require(k >= 1, "need at least one table")
        _require(is_power_of_two(n), "bucket count n must be a power of two")
        _require(c >= 1, "bucket capacity c must be at least 1")
        self.n = n
        self.k = k
        self.c = c
        self.fam = fam
        self.level_id = level_id
        self.payload_size = payload_size
        self.store = SlotArray((k, n, c), payload_size)
        self.tables = [ZhtTable.row_of(self.store, j) for j in range(k)]
        self.regions = [table_region(level_id, j) for j in range(k)]
        self._subkeys = fam.subkeys(level_id, k)
        # (k*n, c) view of the store and each table's first row in it, so a
        # path's k buckets are one take() of rows buckets + _row_base
        self._bucket_rows = self.store.reshape((k * n, c))
        self._row_base = np.arange(k) * n

    # -- paths ---------------------------------------------------------------

    def path(self, key: int) -> list[int]:
        """The zigzag path h_1(key) .. h_k(key)."""
        return [
            int(self.fam.bucket_indices(self.level_id, j, key, self.n))
            for j in range(self.k)
        ]

    def path_matrix(self, keys: np.ndarray) -> np.ndarray:
        """(len(keys), k) path matrix for a batch of keys."""
        return np.column_stack(
            [
                self.fam.bucket_indices(self.level_id, j, keys, self.n)
                for j in range(self.k)
            ]
        )

    # -- insertion -----------------------------------------------------------

    def _place_in_bucket(self, j: int, b: int, key: int, payload_row,
                         allow_overwrite_dummy: bool) -> bool:
        """Claim one slot of bucket b in table j; returns False when full."""
        tbl = self.tables[j]
        fill = tbl.prefix_fill
        if fill is not None:
            # prefix-contiguous table: dummies cannot exist, so both claim
            # policies reduce to "next empty slot".
            f = int(fill[b])
            if f >= self.c:
                return False
            tbl.key[b, f] = key
            tbl.state[b, f] = REAL
            tbl.tag[b, f] = True
            tbl.payload[b, f] = payload_row
            fill[b] = f + 1
            return True
        states = tbl.state[b]
        free = states == EMPTY
        if allow_overwrite_dummy:
            free = free | (states == DUMMY)
        if not free.any():
            return False
        s = int(free.argmax())
        tbl.key[b, s] = key
        tbl.state[b, s] = REAL
        tbl.tag[b, s] = True
        tbl.payload[b, s] = payload_row
        return True

    def zigzag_insert(self, e: Slot, path, allow_overwrite_dummy: bool = False,
                      recorder: TraceRecorder | None = None,
                      first_table: int = 0) -> bool:
        """Insert a Real slot at the first free bucket along `path`.

        All buckets on the path are read and written back regardless of where
        (or whether) the element lands.  `first_table` restricts the walk to
        tables first_table..k-1; `path` then covers exactly those tables.
        """
        _require(e.is_real, "only Real slots are inserted")
        _require(0 <= first_table < self.k, "first_table out of range")
        _require(len(path) == self.k - first_table,
                 "path length must cover the remaining tables")
        _require(len(e.payload) == self.payload_size, "payload width mismatch")
        payload_row = np.frombuffer(e.payload, dtype=np.uint8)
        placed = False
        for off, b in enumerate(path):
            j = first_table + off
            if recorder is not None:
                recorder.record(self.regions[j], b, TraceOp.READ_WRITE)
            if not placed:
                placed = self._place_in_bucket(
                    j, int(b), e.key, payload_row, allow_overwrite_dummy
                )
        return placed

    def throw(self, elems: SlotArray, path_source: str, rng: Rng,
              recorder: TraceRecorder | None = None,
              allow_overwrite_dummy: bool = True) -> ThrowReport:
        """Throw every input slot: real slots zigzag-insert, the rest fake.

        path_source "random" draws one fresh uniform path row per input slot;
        "prf" routes real slots by their key's hash path (dummies still get
        random rows).  Either way the randomness consumed and the trace's
        region sequence depend only on the input length.
        """
        if path_source not in ("random", "prf"):
            raise InvalidParameterError("path_source must be 'random' or 'prf'")
        _require(elems.payload_size == self.payload_size, "payload width mismatch")
        m = elems.size
        paths = rng.buckets(self.n, (m, self.k)) if m else np.zeros((0, self.k), np.int64)
        flat_state = elems.state.reshape(-1)
        flat_key = elems.key.reshape(-1)
        flat_pay = elems.payload.reshape(-1, self.payload_size)
        real_rows = np.flatnonzero(flat_state == REAL)
        if path_source == "prf" and real_rows.size:
            paths[real_rows] = self.path_matrix(flat_key[real_rows].astype(np.uint64))
        if recorder is not None and m:
            recorder.record_tiled(self.regions, paths, TraceOp.READ_WRITE)
        spills = [0] * self.k
        placed = [0] * self.k
        unplaced = 0
        for r in real_rows:
            key = int(flat_key[r])
            row = flat_pay[r]
            landed = False
            for j in range(self.k):
                if self._place_in_bucket(j, int(paths[r, j]), key, row,
                                         allow_overwrite_dummy):
                    placed[j] += 1
                    landed = True
                    break
                spills[j] += 1
            if not landed:
                unplaced += 1
        return ThrowReport(spills, placed, unplaced)

    # -- lookup --------------------------------------------------------------

    def search(self, key: int, remove: bool = False,
               recorder: TraceRecorder | None = None) -> Slot | None:
        """Probe all k path buckets; extract (and optionally remove) the match.

        One gather pulls the k path buckets out of the store; comparison and
        extraction are mask arithmetic over all of them, so every path bucket
        is visited even after a hit.
        """
        _require(0 <= key <= MAX_REAL_KEY, "key out of range")
        buckets = path_buckets(self._subkeys, key, self.n)
        if recorder is not None and recorder.enabled:
            recorder.record_tiled(self.regions, buckets[None, :], TraceOp.READ_WRITE)
        rows = buckets + self._row_base
        br = self._bucket_rows
        keys = br.key.take(rows, axis=0)
        states = br.state.take(rows, axis=0)
        match = (keys == key) & (states == REAL)
        # with at most one match (what the debug check below asserts) the max
        # over all k*c masked slots is exactly the matching slot's payload
        byte_mask = match[:, :, None] * np.uint8(0xFF)
        acc = (br.payload.take(rows, axis=0) & byte_mask).max(axis=(0, 1))
        hits = np.count_nonzero(match)
        if remove and hits:
            hit_j, hit_s = np.nonzero(match)
            hit_rows = rows[hit_j]
            br.key[hit_rows, hit_s] = KEY_SENTINEL
            br.state[hit_rows, hit_s] = DUMMY
            br.tag[hit_rows, hit_s] = False
            br.payload[hit_rows, hit_s] = 0
            for j in hit_j:
                self.tables[j].invalidate_prefix()
        if debug_checks_enabled():
            assert hits <= 1, f"key {key} resident in {hits} slots"
        if hits == 0:
            return None
        return Slot.real(key, acc.tobytes())

    def dummy_search(self, rng: Rng, recorder: TraceRecorder | None = None) -> None:
        """Shape-identical to search: one uniformly random bucket per table."""
        # read-modify-write of unchanged contents
        buckets = [rng.bucket(self.n) for _ in range(self.k)]
        if recorder is not None and recorder.enabled:
            recorder.record_tiled(self.regions, [buckets], TraceOp.READ_WRITE)

    # -- accounting ----------------------------------------------------------

    def real_counts(self) -> list[int]:
        return (self.store.state == REAL).sum(axis=(1, 2)).tolist()

    def real_items(self) -> list[tuple[int, bytes]]:
        """All (key, payload) pairs currently resident, table-major order."""
        mask = self.store.state == REAL
        keys = self.store.key[mask].tolist()
        return [(key, p.tobytes()) for key, p in zip(keys, self.store.payload[mask])]

    def slot_array(self) -> SlotArray:
        """All k*n*c slots as one flat array (table, bucket, slot order).

        A reshape of the store, so it shares the level's memory: copy it
        before the level changes.
        """
        return self.store.reshape(self.k * self.n * self.c)
