"""Zigzag hash tables: k tables of n buckets, one hash function per table.

An element's zigzag path is h_1(key), ..., h_k(key), one bucket per table,
and a search probes all k of them (no early exit on a hit).  A throw is the
paper's oblivious one: every input slot, real or not, walks one fresh
uniform path, a real claiming the first free slot on it; routing (prn) later
moves each real to its hash bucket.  Every operation touches its full set of
buckets whether or not it needs them.  What varies with the data is slot
contents, not which buckets are touched.

A Zht keeps its slots in one SlotArray of k*n bucket rows of c slots, table
j's bucket b at row b + j*n, so a search is one gather of the k path rows.
store, the (k, n, c) table, bucket, slot array, and tables[j], table j's
rows that routing writes, are views of it made when asked for.  The rows are
fresh, or a C-contiguous all-dummy (k, n, c) store the caller hands in (a
PyramidOram builds each level over the storage the level held before).  A
slot is a key and a payload (route() keeps its tags to itself), real iff its
key is not KEY_SENTINEL, which is above every real key, so a search compares
keys only and `key == probe` is exactly "a real slot holding probe".  A
search takes the k path rows' keys and payloads, on a hit and on a miss
alike; nonzero() of the (k, c) key match gives the hit's (table, slot), and
the hit's payload is that row of the gathered copy.  A removal writes the
sentinel into that one slot, which frees it.

Placement is one kernel, _first_fit, for the throw and for zigzag_insert
alike.  It walks the tables in order; at table j it ranks every element still
unplaced among the earlier arrivals at the same bucket, and the element of
rank r lands iff r is below the bucket's count of free (sentinel-keyed)
slots, in the r-th free slot in slot order.  That is sequential first-fit
exactly, because an element's outcome at table j depends only on the
bucket's contents and on the earlier elements that arrived at it.  So every
slot is worked out before any is written, and a caller can keep a prefix:
the throw stores every element that fits and counts the rest, while
zigzag_insert, one real or a batch (a build's whole re-throw sweep), stores
the elements before the first that falls off, as inserting them one at a
time until one fails would.  Any non-real slot is free, a removed real's
included.  The kernel reads the store on every call, so no other code keeps
it up to date.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_PAYLOAD_SIZE,
    KEY_SENTINEL,
    HashFamily,
    Rng,
    SlotArray,
    _non_negative,
    _require,
    as_int,
    debug_checks_enabled,
    is_power_of_two,
    path_buckets,
    payload_bytes,
    rank_within_group,
    real_key,
)
from .trace import TraceRecorder, table_region

# rows per block when a build draws its path matrix: the scratch a throw or a
# sweep holds is a block, not a row per input slot
_BLOCK_ROWS = 8192


def draw_paths(rng: Rng, n: int, rows: int, keep: np.ndarray, regions,
               recorder: TraceRecorder | None = None) -> np.ndarray:
    """Draw a (rows, len(regions)) uniform path matrix; return the rows in keep.

    The matrix is drawn, and recorded as one row of events per input slot,
    in blocks of _BLOCK_ROWS rows, so only a block and the kept rows are ever
    held.  The words drawn and the events recorded are those of one draw of
    the whole matrix, in the same order.  keep is ascending row indices.
    """
    out = np.empty((keep.size, len(regions)), np.int64)
    lo = 0
    for r0 in range(0, rows, _BLOCK_ROWS):
        block = rng.bucket(n, (min(_BLOCK_ROWS, rows - r0), len(regions)))
        hi = keep.searchsorted(r0 + len(block))
        out[lo:hi] = block[keep[lo:hi] - r0]
        if recorder is not None:
            recorder.record(regions, block)
        lo = hi
    return out


@dataclass(frozen=True)
class BuildInput:
    """What a throw or a build reads of its input: the slot count and the reals.

    size, the slot count with dummies, alone sets the throw's shape and
    trace; rows are the reals' strictly ascending positions, key their
    distinct real uint32 keys, payload their uint8 rows; all else is refused.
    """

    size: int
    rows: np.ndarray
    key: np.ndarray
    payload: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "size", _non_negative(self.size, "size"))
        rows, key, payload = self.rows, self.key, self.payload
        _require(isinstance(rows, np.ndarray) and rows.ndim == 1
                 and np.issubdtype(rows.dtype, np.integer),
                 "rows must be a 1-D integer array")
        # -1, rows, size ascend strictly iff the rows do, within [0, size)
        _require((np.diff(rows, prepend=-1, append=self.size) > 0).all(),
                 f"rows must ascend strictly within [0, {self.size})")
        _require(isinstance(key, np.ndarray) and key.dtype == np.uint32
                 and key.shape == rows.shape, "key must be uint32, one per row")
        # likewise the sorted keys, then KEY_SENTINEL, the largest uint32
        _require((np.diff(np.sort(key), append=KEY_SENTINEL) > 0).all(),
                 "key must not repeat or hold the sentinel")
        _require(isinstance(payload, np.ndarray) and payload.dtype == np.uint8
                 and payload.shape[:1] == rows.shape and payload.ndim == 2,
                 "payload must be 2-D uint8, one row per real")

    @classmethod
    def gather(cls, parts) -> "BuildInput":
        """The reals of the SlotArrays `parts`, read as one flat array in order."""
        rows, keys, payloads, at = [], [], [], 0
        for part in parts:
            flat = part.key.reshape(-1)
            mine = np.flatnonzero(flat != KEY_SENTINEL)
            rows.append(mine + at)
            keys.append(flat[mine])
            payloads.append(part.payload.reshape(flat.size, part.payload_size)[mine])
            at += flat.size
        return cls(at, np.concatenate(rows), np.concatenate(keys),
                   np.concatenate(payloads))

    @property
    def payload_size(self) -> int:
        return self.payload.shape[1]


class Zht:
    """k-table zigzag hash table over a fixed hash family epoch."""

    def __init__(self, n: int, k: int, c: int, fam: HashFamily, level_id: int = 0,
                 payload_size: int = DEFAULT_PAYLOAD_SIZE,
                 store: SlotArray | None = None):
        """A table set over the bucket rows of `store`, an all-dummy C-contiguous
        (k, n, c) SlotArray of payload_size-byte rows, or of a fresh one."""
        n, k, c = as_int(n, "n"), as_int(k, "k"), as_int(c, "c")
        level_id = as_int(level_id, "level_id")
        _require(k >= 1, "need at least one table")
        _require(is_power_of_two(n), "bucket count n must be a power of two")
        _require(c >= 1, "bucket capacity c must be at least 1")
        self.n = n
        self.k = k
        self.c = c
        self.fam = fam
        self.level_id = level_id
        if store is None:
            rows = SlotArray((k * n, c), payload_size)
        else:
            _require(store.shape == (k, n, c) and store.payload_size == payload_size
                     and store.key.flags.c_contiguous
                     and store.payload.flags.c_contiguous,
                     f"store must be C-contiguous ({k}, {n}, {c}) slots of "
                     f"{payload_size} bytes")
            rows = store.reshape((k * n, c))
            if debug_checks_enabled():
                _require((rows.key == KEY_SENTINEL).all(), "store holds a real key")
                _require(not rows.payload.any(), "store holds payload bytes")
        self._bucket_rows = rows
        self.payload_size = rows.payload_size
        self.regions = [table_region(level_id, j) for j in range(k)]
        self._subkeys = fam.subkeys(level_id, k)
        self._row_base = np.arange(k) * n

    @property
    def store(self) -> SlotArray:
        """All the slots as a (k, n, c) view: table, bucket, slot."""
        return self._bucket_rows.reshape((self.k, self.n, self.c))

    @property
    def tables(self) -> list[SlotArray]:
        """Each table's (n, c) view of its bucket rows."""
        return [self._bucket_rows[j * self.n:(j + 1) * self.n] for j in range(self.k)]

    # -- paths ---------------------------------------------------------------

    def path(self, key: int) -> list[int]:
        """The zigzag path h_1(key) .. h_k(key) of a real key."""
        return path_buckets(self._subkeys, real_key(key), self.n).tolist()

    # -- insertion -----------------------------------------------------------

    def _first_fit(self, keys: np.ndarray, payload: np.ndarray,
                   paths: np.ndarray, first_table: int,
                   stop_at_miss: bool = False) -> np.ndarray:
        """Place reals first-fit along their paths, one rank pass per table.

        keys (m,), payload (m, payload_size) and paths (m, k - first_table)
        describe m reals in input order; paths[:, i] is the bucket in table
        first_table + i.  Every slot is worked out before any is written;
        then all the reals that fit are stored, or with stop_at_miss only
        those before the first that falls off.  Returns the table each real
        landed in, -1 where it was not stored.
        """
        br = self._bucket_rows
        landed = np.full(keys.size, -1, dtype=np.int64)
        todo = np.arange(keys.size)
        placed = []
        for off in range(paths.shape[1]):
            if todo.size == 0:
                break
            j = first_table + off
            r = paths[todo, off] + j * self.n
            # free slots of the bucket (row r) so far, counting in slot order
            free = np.cumsum(br.key.take(r, axis=0) == KEY_SENTINEL, axis=1)
            rank = rank_within_group(r)
            fits = rank < free[:, -1]
            # the rank-th free slot is where the count first exceeds rank
            s = (free > rank[:, None]).argmax(axis=1)[fits]
            placed.append((j, r[fits], s, todo[fits]))
            todo = todo[~fits]
        stop = todo[0] if stop_at_miss and todo.size else keys.size
        for j, r, s, rows in placed:
            if stop < keys.size:
                keep = rows < stop
                r, s, rows = r[keep], s[keep], rows[keep]
            br.key[r, s] = keys[rows]
            br.payload[r, s] = payload[rows]
            landed[rows] = j
        return landed

    def zigzag_insert(self, key, payload, path, first_table: int = 0) -> bool:
        """Insert reals, in order, at the first bucket along each path with
        a free slot, stopping at the first that falls off the end.

        One real is a key, payload_size bytes (or a uint8 row of them) and
        a path; a batch is a 1-D uint32 key array, an (m, payload_size)
        uint8 array and an (m, k - first_table) integer path array.  The
        batch is inserted one real at a time: the first real that falls off
        is not stored, nor is any after it.  True iff every real was
        placed.  `first_table` restricts the walks to tables
        first_table..k-1, which the paths cover exactly.  All buckets on
        every path are read and written back regardless of where (or
        whether) a real lands; the caller records the paths (a build's
        sweep does so through draw_paths).  A bad key, row or path is
        refused before anything is stored.
        """
        _require(0 <= first_table < self.k, "first_table out of range")
        if isinstance(key, np.ndarray):
            keys, rows, paths = key, payload, np.asarray(path)
            _require(keys.dtype == np.uint32 and keys.ndim == 1,
                     "a batch's keys must be a 1-D uint32 array")
            _require(not (keys == KEY_SENTINEL).any(), "key out of range")
            _require(isinstance(rows, np.ndarray) and rows.dtype == np.uint8
                     and rows.shape == (keys.size, self.payload_size),
                     f"a batch's payload must be uint8 rows of "
                     f"{self.payload_size} bytes, one per key")
        else:
            keys = np.array([real_key(key)], dtype=np.uint32)
            rows = np.frombuffer(payload_bytes(payload, self.payload_size),
                                 np.uint8)[None]
            paths = np.asarray(path)[None]
        _require(paths.shape == (keys.size, self.k - first_table),
                 "path length must cover the remaining tables")
        # a float or bool path would be truncated to buckets it does not name
        _require(np.issubdtype(paths.dtype, np.integer), "path must hold integers")
        paths = paths.astype(np.int64, copy=False)
        _require(((paths >= 0) & (paths < self.n)).all(), "path bucket out of range")
        landed = self._first_fit(keys, rows, paths, first_table, stop_at_miss=True)
        return bool((landed >= 0).all())

    def throw(self, elems: BuildInput, rng: Rng,
              recorder: TraceRecorder | None = None) -> int:
        """Throw every input slot: real slots zigzag-insert, the rest fake.

        Every input slot gets one fresh uniform path row, so the randomness
        consumed and the trace's region sequence depend only on the input's
        slot count.  The rows are drawn and recorded in blocks (draw_paths)
        and only the reals' rows are kept, so the scratch does not grow with
        the dummies; the stream and the trace are those of one draw of the
        whole matrix.  Returns how many reals fell off the end of their path.
        """
        _require(isinstance(elems, BuildInput), "a throw takes a BuildInput")
        _require(elems.payload_size == self.payload_size, "payload width mismatch")
        paths = draw_paths(rng, self.n, elems.size, elems.rows, self.regions,
                           recorder)
        landed = self._first_fit(elems.key, elems.payload, paths, 0)
        return int(np.count_nonzero(landed < 0))

    # -- lookup --------------------------------------------------------------

    def search(self, key: int, remove: bool = False,
               recorder: TraceRecorder | None = None,
               buckets: np.ndarray | None = None) -> bytes | None:
        """Probe all k path buckets; the match's payload, or None on a miss.

        One take of the k path buckets' keys and one compare find the key,
        and nonzero() of the (k, c) match gives its (table, slot): at most
        one slot holds a key.  The k buckets' payload rows are taken whether
        or not the key is there, and a hit returns its row of that copy.
        `remove` frees the matching slot.  Every path bucket is visited even
        after a hit.  `buckets` is the path when the caller has hashed it
        already; by default the key is hashed under this table's subkeys.
        """
        key = real_key(key)
        if buckets is None:
            buckets = path_buckets(self._subkeys, key, self.n)
        if recorder is not None:
            recorder.record(self.regions, [buckets])
        rows = buckets + self._row_base
        br = self._bucket_rows
        j, s = (br.key.take(rows, axis=0) == key).nonzero()
        payload = br.payload.take(rows, axis=0)
        if debug_checks_enabled():
            assert j.size <= 1, f"key {key} resident in {j.size} slots"
        if not j.size:
            return None
        j, s = j[0], s[0]
        if remove:
            br.key[rows[j], s] = KEY_SENTINEL
            br.payload[rows[j], s] = 0
        return payload[j, s].tobytes()

    def dummy_search(self, rng: Rng, recorder: TraceRecorder | None = None) -> None:
        """Shape-identical to search: one uniformly random bucket per table."""
        # read-modify-write of unchanged contents
        buckets = rng.bucket(self.n, self.k)
        if recorder is not None:
            recorder.record(self.regions, [buckets])

    # -- accounting ----------------------------------------------------------

    def real_counts(self) -> list[int]:
        key = self._bucket_rows.key.reshape(self.k, self.n * self.c)
        return np.count_nonzero(key != KEY_SENTINEL, axis=1).tolist()

    def real_items(self) -> list[tuple[int, bytes]]:
        """All (key, payload) pairs currently resident, table-major order."""
        mask = self.store.key != KEY_SENTINEL
        keys = self.store.key[mask].tolist()
        return [(key, p.tobytes()) for key, p in zip(keys, self.store.payload[mask])]

    def slot_array(self) -> SlotArray:
        """All k*n*c slots as one flat array (table, bucket, slot order).

        A view of the bucket rows, so it shares the level's memory: copy it
        before the level changes.
        """
        return self._bucket_rows.reshape(self.k * self.n * self.c)
