"""Zigzag hash tables: k tables of n buckets, one hash function per table.

An element's zigzag path is h_1(key), ..., h_k(key), one bucket per table; it
lives in the first bucket along the path with a free slot.  Every operation
touches its full set of buckets whether or not it needs them: searches probe
all k path buckets (no early exit on a hit), throws of non-elements perform one
random fake access per table.  What varies with the data is slot contents, not
which buckets are touched.

A Zht keeps all its slots in one SlotArray of shape (k, n, c): table, bucket,
slot.  tables[j] is a core.Table view of row j, so per-table code (routing)
writes straight into the store, and a search is one gather of the k path
buckets out of it.  A slot is a key and a payload (route() keeps its tags to
itself), real iff its key is not KEY_SENTINEL, which is above every real
key, so a search compares keys only and `key == probe` is exactly "a real
slot holding probe".  A removal writes the sentinel,
which frees the slot.  The hit's payload is the dot product of the 0/1 match
vector with the gathered payload rows.

Placement is one kernel, _first_fit, for a batch throw and a single insert
alike.  It walks the tables in order; at table j it ranks every element still
unplaced among the earlier arrivals at the same bucket, and the element of
rank r lands iff r is below the bucket's count of free (sentinel-keyed)
slots, in the r-th free slot in slot order.  That is sequential first-fit
exactly, because an element's outcome at table j depends only on the
bucket's contents and on the earlier elements that arrived at it.  Any
non-real slot is free, a removed real's included.  The kernel reads the
store on every call, so no other code keeps it up to date.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    KEY_SENTINEL,
    MAX_REAL_KEY,
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
    rank_within_group,
)
from .trace import TraceOp, TraceRecorder, table_region

# rows per block when a build draws its path matrix: the scratch a throw or a
# sweep holds is a block, not a row per input slot
_BLOCK_ROWS = 8192


def draw_paths(rng: Rng, n: int, rows: int, keep: np.ndarray, regions,
               recorder: TraceRecorder | None = None,
               given: np.ndarray | None = None) -> np.ndarray:
    """Draw a (rows, len(regions)) uniform path matrix; return the rows in keep.

    The matrix is drawn, and recorded as one READ_WRITE row per input slot,
    in blocks of _BLOCK_ROWS rows, so only a block and the kept rows are ever
    held.  The words drawn and the events recorded are those of one draw of
    the whole matrix, in the same order.  keep is ascending row indices.
    `given`, if not None, holds keep's paths: they are recorded in place of
    those rows' draws and are what is returned.
    """
    width = len(regions)
    out = np.empty((keep.size, width), np.int64) if given is None else given
    lo = 0
    for r0 in range(0, rows, _BLOCK_ROWS):
        block = rng.buckets(n, (min(_BLOCK_ROWS, rows - r0), width))
        hi = keep.searchsorted(r0 + len(block))
        mine = keep[lo:hi] - r0
        if given is None:
            out[lo:hi] = block[mine]
        else:
            block[mine] = given[lo:hi]
        if recorder is not None:
            recorder.record_tiled(regions, block, TraceOp.READ_WRITE)
        lo = hi
    return out


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
        self.tables = [Table.row_of(self.store, j) for j in range(k)]
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

    def _first_fit(self, keys: np.ndarray, payload: np.ndarray,
                   paths: np.ndarray, first_table: int) -> np.ndarray:
        """Place reals first-fit along their paths, one rank pass per table.

        keys (m,), payload (m, payload_size) and paths (m, k - first_table)
        describe m reals in input order; paths[:, i] is the bucket in table
        first_table + i.  Returns the table each real landed in, -1 where it
        fell off the end.  Equal to inserting them one at a time.
        """
        st = self.store
        landed = np.full(keys.size, -1, dtype=np.int64)
        todo = np.arange(keys.size)
        for off in range(paths.shape[1]):
            if todo.size == 0:
                break
            j = first_table + off
            b = paths[todo, off]
            # free slots of the bucket so far, counting in slot order
            free = np.cumsum(st.key[j].take(b, axis=0) == KEY_SENTINEL, axis=1)
            rank = rank_within_group(b)
            fits = rank < free[:, -1]
            # the rank-th free slot is where the count first exceeds rank
            s = (free > rank[:, None]).argmax(axis=1)[fits]
            b, rows = b[fits], todo[fits]
            st.key[j, b, s] = keys[rows]
            st.payload[j, b, s] = payload[rows]
            landed[rows] = j
            todo = todo[~fits]
        return landed

    def zigzag_insert(self, e: Slot, path, recorder: TraceRecorder | None = None,
                      first_table: int = 0) -> bool:
        """Insert a real slot at the first bucket along `path` with a free slot.

        All buckets on the path are read and written back regardless of where
        (or whether) the element lands.  `first_table` restricts the walk to
        tables first_table..k-1; `path` then covers exactly those tables.
        """
        _require(e.is_real, "only real slots are inserted")
        _require(0 <= first_table < self.k, "first_table out of range")
        _require(len(path) == self.k - first_table,
                 "path length must cover the remaining tables")
        _require(len(e.payload) == self.payload_size, "payload width mismatch")
        path = np.asarray(path, dtype=np.int64)[None, :]
        _require(((path >= 0) & (path < self.n)).all(), "path bucket out of range")
        if recorder is not None:
            recorder.record_tiled(self.regions[first_table:], path, TraceOp.READ_WRITE)
        landed = self._first_fit(np.array([e.key], dtype=np.uint32),
                                 np.frombuffer(e.payload, dtype=np.uint8)[None],
                                 path, first_table)
        return bool(landed[0] >= 0)

    def throw(self, elems: SlotArray, path_source: str, rng: Rng,
              recorder: TraceRecorder | None = None) -> ThrowReport:
        """Throw every input slot: real slots zigzag-insert, the rest fake.

        path_source "random" draws one fresh uniform path row per input slot;
        "prf" routes real slots by their key's hash path (dummies still get
        random rows).  Either way the randomness consumed and the trace's
        region sequence depend only on the input length.  The rows are drawn
        and recorded in blocks (draw_paths) and only the reals' rows are kept,
        so the scratch does not grow with the dummies; the stream and the
        trace are those of one draw of the whole matrix.
        """
        if path_source not in ("random", "prf"):
            raise InvalidParameterError("path_source must be 'random' or 'prf'")
        _require(elems.payload_size == self.payload_size, "payload width mismatch")
        flat_key = elems.key.reshape(-1)
        real_rows = np.flatnonzero(flat_key != KEY_SENTINEL)
        given = None
        if path_source == "prf" and real_rows.size:
            given = self.path_matrix(flat_key[real_rows].astype(np.uint64))
        paths = draw_paths(rng, self.n, elems.size, real_rows, self.regions,
                           recorder, given)
        landed = self._first_fit(
            flat_key[real_rows],
            elems.payload.reshape(-1, self.payload_size)[real_rows],
            paths, 0)
        placed = np.bincount(landed[landed >= 0], minlength=self.k)
        unplaced = real_rows.size - int(placed.sum())
        # spilled at table j: every arrival there that landed later or fell off
        spills = unplaced + placed[::-1].cumsum()[::-1] - placed
        return ThrowReport(spills.tolist(), placed.tolist(), unplaced)

    # -- lookup --------------------------------------------------------------

    def search(self, key: int, remove: bool = False,
               recorder: TraceRecorder | None = None,
               buckets: np.ndarray | None = None) -> bytes | None:
        """Probe all k path buckets; the match's payload, or None on a miss.

        One gather of the k path buckets' keys and one compare find the key;
        the payload is the dot product of the 0/1 match vector with the
        gathered payload rows, exact because at most one slot matches.
        `remove` frees the matching slot.  Every path bucket is visited even
        after a hit.  `buckets` is the path when the caller has hashed it
        already; by default the key is hashed under this table's subkeys.
        """
        _require(0 <= key <= MAX_REAL_KEY, "key out of range")
        if buckets is None:
            buckets = path_buckets(self._subkeys, key, self.n)
        if recorder is not None and recorder.enabled:
            recorder.record_tiled(self.regions, buckets[None, :], TraceOp.READ_WRITE)
        rows = buckets + self._row_base
        br = self._bucket_rows
        keys = br.key.take(rows, axis=0)
        match = keys == key
        hits = np.count_nonzero(match)
        if debug_checks_enabled():
            assert hits <= 1, f"key {key} resident in {hits} slots"
        payload = np.dot(match.reshape(-1).view(np.uint8),
                         br.payload.take(rows, axis=0).reshape(match.size, -1))
        if remove and hits:
            hit_j, hit_s = np.nonzero(match)
            hit_rows = rows[hit_j]
            br.key[hit_rows, hit_s] = KEY_SENTINEL
            br.payload[hit_rows, hit_s] = 0
        return payload.tobytes() if hits else None

    def dummy_search(self, rng: Rng, recorder: TraceRecorder | None = None) -> None:
        """Shape-identical to search: one uniformly random bucket per table."""
        # read-modify-write of unchanged contents
        buckets = [rng.bucket(self.n) for _ in range(self.k)]
        if recorder is not None and recorder.enabled:
            recorder.record_tiled(self.regions, [buckets], TraceOp.READ_WRITE)

    # -- accounting ----------------------------------------------------------

    def real_counts(self) -> list[int]:
        return np.count_nonzero(self.store.key != KEY_SENTINEL, axis=(1, 2)).tolist()

    def real_items(self) -> list[tuple[int, bytes]]:
        """All (key, payload) pairs currently resident, table-major order."""
        mask = self.store.key != KEY_SENTINEL
        keys = self.store.key[mask].tolist()
        return [(key, p.tobytes()) for key, p in zip(keys, self.store.payload[mask])]

    def slot_array(self) -> SlotArray:
        """All k*n*c slots as one flat array (table, bucket, slot order).

        A reshape of the store, so it shares the level's memory: copy it
        before the level changes.
        """
        return self.store.reshape(self.k * self.n * self.c)
