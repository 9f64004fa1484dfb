"""The hierarchy: a scanned append log in front of geometrically growing levels.

Level 0 is a plain array of p slots, read in full on every access.  Level j
(1-based) is a zigzag table set of n_j = 2^(j-1) * p buckets; the last of l =
log2(N/p) + 1 levels has bucket count equal to the capacity N.  An access
scans the log, then walks the levels in order, really searching until the key
is found and making indistinguishable dummy searches afterwards.  The result
is re-appended to the log at position t mod p, so the log fills at one slot
per access regardless of hits, misses, reads, or writes.

The key is hashed once per access: a lane table, refreshed by the one method
that writes self.levels, holds the subkeys and bucket counts of every table
of every occupied level, and one path_buckets call gives all their buckets.
Levels after the hit are hashed too (hashing is private computation, and
its work then does not depend on where the hit is), but their buckets are
never read: those levels get dummy searches over fresh random buckets.  A
real search at a level is Zht.search over that level's slice of the lanes:
one take of its k path buckets' keys and payload rows, one compare, and
nonzero() for the hit's (table, slot).  The log, like every level, holds
slots that are real iff their key is not KEY_SENTINEL, so the log scan too
compares keys only and takes a hit's slot from nonzero().  An access reads
the recorder and the RNG once, before its level loop; the debug flag is
read there too, and again by the log scan and by every real search.

Every p accesses the log (plus every level smaller than the target) is rebuilt
into the level addressed by the trailing-zero count of t/p, and every N
accesses everything is rebuilt into the last level under a fresh hash epoch,
over the other of that level's two buffers, while the old last level stays
installed until the new one is built.  Which levels exist at any time is
therefore a public function of t alone: level j < l is occupied exactly when
bit j-1 of t/p is set, and the last level is occupied once t reaches N (or
after a bulk load).  online_cost() is the closed form of the per-access
bucket count this schedule implies, and the suite holds the implementation
to it exactly.

The one access-pattern caveat is inherent to search-until-found: reading a key
that is absent performs a real search at every level, so reading the same
absent key twice repeats those bucket positions.  The debug-mode search log
raises on any repeated real search at a level between its rebuilds, which
makes the caveat checkable; stored keys never trip it because a found key
moves to the log and only returns to a level when that level is rebuilt.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_PAYLOAD_SIZE,
    KEY_SENTINEL,
    MAX_REAL_KEY,
    BuildFailedError,
    CapacityExceededError,
    HashFamily,
    InvalidParameterError,
    Rng,
    SlotArray,
    StoreBrokenError,
    _require,
    as_int,
    debug_checks_enabled,
    is_power_of_two,
    path_buckets,
    payload_bytes,
    real_key,
)
from .ozht import BuildReport, build_access_count, oblivious_build
from .trace import L0_REGION, TraceRecorder
from .zht import BuildInput, Zht

DEFAULT_C = 4


def default_k(n: int) -> int:
    """Tables per level: max(2, ceil(log2 log2 n))."""
    _require(is_power_of_two(n) and n >= 2, "n must be a power of two >= 2")
    log_n = n.bit_length() - 1
    return max(2, (log_n - 1).bit_length())


@dataclass(frozen=True)
class LevelParams:
    """Shape of one level: 1-based index, bucket count, tables, bucket size."""

    index: int
    n: int
    k: int
    c: int

    @property
    def slot_count(self) -> int:
        return self.k * self.n * self.c


@dataclass(frozen=True)
class PyramidConfig:
    """Construction-time parameters; everything else is derived from these."""

    capacity: int
    first_level_size: int = 1024
    payload_size: int = DEFAULT_PAYLOAD_SIZE
    seed: int = 0
    max_retries: int = 0
    k_override: int | None = None
    c_override: int | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:  # overrides may be None
                # frozen: store the checked Python int, not a numpy integer
                object.__setattr__(self, f.name, as_int(value, f.name))
        _require(is_power_of_two(self.capacity), "capacity must be a power of two")
        _require(is_power_of_two(self.first_level_size),
                 "first_level_size must be a power of two")
        _require(2 <= self.first_level_size <= self.capacity,
                 "first_level_size must be in [2, capacity]")
        _require(self.payload_size >= 1, "payload_size must be at least 1")
        _require(self.seed >= 0, "seed must be non-negative")
        _require(self.max_retries >= 0, "max_retries must be non-negative")
        if self.k_override is not None:
            # a trace region id holds the table index in 8 bits
            _require(1 <= self.k_override <= 256, "k_override must be in [1, 256]")
        if self.c_override is not None:
            _require(self.c_override >= 1, "c_override must be at least 1")

    @property
    def num_levels(self) -> int:
        ratio = self.capacity // self.first_level_size
        return (ratio.bit_length() - 1) + 1

    @cached_property
    def levels(self) -> tuple[LevelParams, ...]:
        """Every level's shape, computed once per config."""
        out = []
        for j in range(1, self.num_levels + 1):
            n = (1 << (j - 1)) * self.first_level_size
            k = self.k_override if self.k_override is not None else default_k(n)
            c = self.c_override if self.c_override is not None else DEFAULT_C
            out.append(LevelParams(j, n, k, c))
        return tuple(out)


@dataclass(frozen=True)
class AccessRecord:
    """Facts about one access.

    Public: op_index, rebuilt_level, online_buckets, total_buckets.
    Secret: op, key, found.
    """

    op_index: int
    op: str
    key: int
    found: bool
    rebuilt_level: int
    online_buckets: int
    total_buckets: int


@dataclass(frozen=True)
class RebuildInfo:
    """One rebuild: target level, inputs, attempts, bucket-access cost.

    access_count charges one attempt however many were made, so a retried
    build's failed attempts are missing from it and from total_buckets.
    """

    level: int
    m_total: int
    attempts: int
    access_count: int


def rebuild_target(config: PyramidConfig, t: int) -> int:
    """Level rebuilt when the counter reaches t (post-increment), -1 for none.

    Every p accesses rebuilds into level tz(t/p) + 1; every N accesses that
    becomes a full rebuild into the last level.
    """
    p = config.first_level_size
    if t <= 0 or t % p:
        return -1
    if t % config.capacity == 0:
        return config.num_levels
    q = t // p
    return (q & -q).bit_length()


def level_occupied(config: PyramidConfig, j: int, t: int, loaded: bool) -> bool:
    """Whether level j holds data at pre-access counter t.

    Level j < l toggles with bit j-1 of t/p; the last level persists from the
    first full rebuild (or a bulk load) on.
    """
    _require(1 <= j <= config.num_levels, "level index out of range")
    if j == config.num_levels:
        return loaded or t >= config.capacity
    q = t // config.first_level_size
    return bool((q >> (j - 1)) & 1)


def online_cost(config: PyramidConfig, t: int, loaded: bool = False) -> int:
    """Exact online bucket count of access t: p plus k_j per occupied level."""
    total = config.first_level_size
    for lp in config.levels:
        if level_occupied(config, lp.index, t, loaded):
            total += lp.k
    return total


class PyramidOram:
    """Keyed oblivious store over fixed-width payloads.

    recorder captures the online access pattern (log scan plus level probes);
    build_recorder captures rebuild traffic.  Both default to disabled
    recorders so the hot path stays cheap.

    A rebuild that raises anywhere (a BuildFailedError, or any other
    exception from its gather, build, install or log clear), or a bulk load
    whose build raises, leaves the store part-way through (counter advanced,
    log not yet merged), so after one every access and bulk_load raises
    StoreBrokenError chained to it; stored_items() still shows what it holds.

    Each level's slot storage lives as long as the store: it is allocated by
    the first build into the level, and when the level empties its reals are
    cleared to dummies in place and the next build into it runs over the
    same storage.  The last level has two buffers, built into in turn, since
    the old last level stays installed until its successor is built.  So a
    Zht taken from levels[j] is a live view: once level j empties, its slots
    are cleared, and a later build into level j reuses them.
    """

    def __init__(self, config: PyramidConfig,
                 recorder: TraceRecorder | None = None,
                 build_recorder: TraceRecorder | None = None):
        self.config = config
        self.recorder = recorder if recorder is not None else TraceRecorder(False)
        self.build_recorder = (
            build_recorder if build_recorder is not None else TraceRecorder(False)
        )
        p = config.first_level_size
        self.level0 = SlotArray(p, config.payload_size)
        self.levels: list[Zht | None] = [None] * (config.num_levels + 1)
        # each level's all-dummy storage while the level is empty (the last
        # level's while the other of its two buffers is installed)
        self._spares: list[SlotArray | None] = [None] * (config.num_levels + 1)
        self._search_log: dict[int, set[int]] = {
            j: set() for j in range(1, config.num_levels + 1)
        }
        self._set_levels({})
        self.t = 0
        self.real_count = 0
        self.epochs = [0] * (config.num_levels + 1)
        self.last_rebuild: RebuildInfo | None = None
        self.broken_by: BaseException | None = None
        self._rng = Rng(config.seed, (0,))
        self._l0_indices = np.arange(p)

    # -- public surface -------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.config.capacity

    @property
    def num_levels(self) -> int:
        return self.config.num_levels

    @property
    def loaded(self) -> bool:
        return self.levels[self.config.num_levels] is not None

    def read(self, key: int) -> bytes | None:
        return self.access("read", key)

    def write(self, key: int, value: bytes) -> bytes | None:
        return self.access("write", key, value)

    def access(self, op: str, key: int, value: bytes | None = None) -> bytes | None:
        result, _ = self.access_with_record(op, key, value)
        return result

    def access_with_record(self, op: str, key: int, value: bytes | None = None,
                           ) -> tuple[bytes | None, AccessRecord]:
        """One access; returns the pre-access payload (None on a miss).

        A fresh-key write at full capacity raises CapacityExceededError as a
        miss: it searched every occupied level for real and recorded a full
        online probe, but drew no randomness and left t and the store as they
        were.  Re-reading the key then repeats those searches (debug: asserts).
        """
        self._refuse_if_broken()
        if op not in ("read", "write"):
            raise InvalidParameterError("op must be 'read' or 'write'")
        key = real_key(key)
        if op == "write":
            value = payload_bytes(value, self.config.payload_size)
        op_index = self.t
        debug = debug_checks_enabled()
        if debug:
            self._assert_schedule_consistent()

        found, payload = self._scan_level0(key)
        # every occupied level's path in one hash, the levels after the hit
        # included: hashing is private, only the gathers below touch memory
        lanes = path_buckets(self._lane_subkeys, key, self._lane_n)
        recorder, rng = self.recorder, self._rng
        for j, level, lo, hi in self._probes:
            if found:
                level.dummy_search(rng, recorder=recorder)
                continue
            if debug:
                self._log_real_search(j, key)
            hit = level.search(key, remove=True, recorder=recorder,
                               buckets=lanes[lo:hi])
            if hit is not None:
                found = True
                payload = hit
        online = self.config.first_level_size + lanes.size

        if op == "write" and not found and self.real_count >= self.config.capacity:
            raise CapacityExceededError(
                f"store already holds {self.real_count} keys"
            )

        self._append(op, key, found, payload, value)
        if op == "write" and not found:
            self.real_count += 1
        self.t += 1
        info = self._rebuild_if_due()

        record = AccessRecord(
            op_index=op_index,
            op=op,
            key=key,
            found=found,
            rebuilt_level=info.level if info else -1,
            online_buckets=online,
            total_buckets=online + (info.access_count if info else 0),
        )
        return payload if found else None, record

    def bulk_load(self, items) -> BuildReport | None:
        """Load (key, payload) pairs into a fresh store's last level.

        The build reads the items as the first reals of `capacity` slots,
        so its shape is a constant; BuildInput refuses more items than that,
        and a repeated key.  Loading nothing is a no-op.
        """
        self._refuse_if_broken()
        items = list(items)
        _require(self.t == 0 and self.real_count == 0 and not self.loaded,
                 "bulk_load requires a fresh store")
        if not items:
            return None
        keys, payload = _load_items(items, self.config.payload_size)
        elems = BuildInput(self.config.capacity, np.arange(len(keys)), keys,
                           payload)
        with self._broken_on_error():
            report = self._build_level(self.config.num_levels, elems)
        self.real_count = len(items)
        return report

    def stored_items(self) -> dict[int, bytes]:
        """Snapshot of every stored (key, payload); a debugging aid, not oblivious."""
        out: dict[int, bytes] = {}
        mask = self.level0.key != KEY_SENTINEL
        for key, payload in zip(self.level0.key[mask], self.level0.payload[mask]):
            out[int(key)] = payload.tobytes()
        for level in self.levels:
            if level is not None:
                out.update(level.real_items())
        return out

    # -- internals -------------------------------------------------------------

    def _refuse_if_broken(self) -> None:
        if self.broken_by is not None:
            raise StoreBrokenError(
                f"store unusable after a failed build: {self.broken_by}"
            ) from self.broken_by

    @contextlib.contextmanager
    def _broken_on_error(self):
        """Mark the store broken by any exception raised inside the block:
        a rebuild or load that raises, for whatever reason, leaves the store
        part-way through, so it refuses further use."""
        try:
            yield
        except BaseException as exc:
            self.broken_by = exc
            raise

    def _set_levels(self, changes: dict[int, Zht | None]) -> None:
        """The one writer of self.levels; refreshes the lane table with it.

        The lane table lists the occupied levels in order, each with its
        slice of the lanes, one lane per (level, table): the tables' subkeys
        and bucket counts, concatenated, so an access hashes every occupied
        level's path in one path_buckets call.  A changed level also starts
        a fresh search log.  A level it replaces is retired: its reals are
        cleared to dummies in place and its storage becomes the level's spare,
        which the next build into the level takes.
        """
        for j, level in changes.items():
            if self.levels[j] is not None:
                self._spares[j] = _retired(self.levels[j])
            self.levels[j] = level
            self._search_log[j].clear()
        probes, subkeys, counts, lo = [], [], [], 0
        for j, level in enumerate(self.levels):
            if level is not None:
                probes.append((j, level, lo, lo + level.k))
                subkeys.append(level._subkeys)
                counts.append(np.full(level.k, level.n, dtype=np.uint64))
                lo += level.k
        self._probes = tuple(probes)
        self._lane_subkeys = np.concatenate(subkeys or [np.zeros(0, np.uint64)])
        self._lane_n = np.concatenate(counts or [np.zeros(0, np.uint64)])

    def _assert_schedule_consistent(self) -> None:
        live = [j for j, _, _, _ in self._probes]
        want = [
            j for j in range(1, self.config.num_levels + 1)
            if level_occupied(self.config, j, self.t, self.loaded)
        ]
        assert live == want, f"occupied levels {live} != schedule {want} at t={self.t}"

    def _log_real_search(self, j: int, key: int) -> None:
        log = self._search_log[j]
        assert key not in log, (
            f"repeated real search for key {key} at level {j}; "
            "re-reading an absent key repeats its bucket positions"
        )
        log.add(key)

    def _scan_level0(self, key: int) -> tuple[bool, bytes | None]:
        l0 = self.level0
        self.recorder.record(L0_REGION, self._l0_indices)
        (hit,) = (l0.key == key).nonzero()
        if debug_checks_enabled():
            assert hit.size <= 1, f"key {key} in {hit.size} log slots"
        if not hit.size:
            return False, None
        payload = l0.payload[hit[0]].tobytes()
        l0.clear_to_dummy(hit)
        return True, payload

    def _append(self, op: str, key: int, found: bool, payload: bytes | None,
                value: bytes | None) -> None:
        # shares the bucket access already made by the log scan, so it adds
        # no trace event; the written slot is real on a hit or write, a dummy
        # on a read miss, and the log advances one slot either way
        l0 = self.level0
        slot_idx = self.t % self.config.first_level_size
        data = value if op == "write" else payload if found else None
        l0.key[slot_idx] = key if data is not None else KEY_SENTINEL
        l0.payload[slot_idx] = 0 if data is None else np.frombuffer(data, np.uint8)

    def _rebuild_if_due(self) -> RebuildInfo | None:
        target = rebuild_target(self.config, self.t)
        if target < 0:
            return None
        # t has advanced: from here on, whatever raises breaks the store
        with self._broken_on_error():
            parts = [self.level0]
            for i in range(1, target):
                level = self.levels[i]
                assert level is not None, f"source level {i} empty at t={self.t}"
                parts.append(level.slot_array())
            # the schedule leaves the target empty except at a full rebuild,
            # which absorbs the old last level
            if self.levels[target] is not None:
                parts.append(self.levels[target].slot_array())
            self._build_level(target, BuildInput.gather(parts),
                              emptied=range(1, target))
            self.level0.clear()
        return self.last_rebuild

    def _build_level(self, target: int, elems: BuildInput,
                     emptied: range = range(0)) -> BuildReport:
        """Build level `target` from elems; on success install it and empty
        the source levels `emptied`, in one _set_levels call.  Its callers
        run it under _broken_on_error.

        The build runs over the target's spare storage, allocated only when
        the level has none yet; a failed attempt's storage is cleared and
        taken by the next attempt, or kept as the spare after the last.
        """
        lp = self.config.levels[target - 1]
        attempts_allowed = 1 + self.config.max_retries
        store, self._spares[target] = self._spares[target], None
        for attempt in range(1, attempts_allowed + 1):
            self.epochs[target] += 1
            fam = HashFamily(self.config.seed, self.epochs[target])
            z, report = oblivious_build(
                elems, lp.n, lp.k, lp.c, fam, self._rng,
                level_id=target, recorder=self.build_recorder, store=store,
            )
            if report.success:
                self._set_levels({**dict.fromkeys(emptied), target: z})
                self.last_rebuild = RebuildInfo(
                    level=target,
                    m_total=report.m_total,
                    attempts=attempt,
                    access_count=build_access_count(report.m_total, lp.n,
                                                    lp.k, lp.c),
                )
                return report
            store = _retired(z)
        self._spares[target] = store
        raise BuildFailedError(
            f"level {target} build failed after {attempts_allowed} "
            f"attempt(s): {report.failure_reason}",
            report,
        )


def _load_items(items: list, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys and payload rows of (key, payload) pairs, checked in one pass.

    Checked as whole columns: int or numpy integer keys (not bool) in
    [0, MAX_REAL_KEY], and bytes, bytearray or 1-D uint8 payloads of `size`
    bytes.  real_key and payload_bytes run only once a check has failed, to
    name the item at fault; a key neither refuses is some other type with
    __index__, which a load refuses too.
    """
    keys = [key for key, _ in items]
    payloads = [payload for _, payload in items]
    key_types, payload_types = set(map(type, keys)), set(map(type, payloads))
    arrays = [p for p in payloads if isinstance(p, np.ndarray)] if any(
        issubclass(t, np.ndarray) for t in payload_types) else []
    if not (all(t is not bool and issubclass(t, (int, np.integer))
                for t in key_types)
            and 0 <= min(keys) and max(keys) <= MAX_REAL_KEY
            and all(issubclass(t, (bytes, bytearray, np.ndarray))
                    for t in payload_types)
            and all(p.dtype == np.uint8 and p.ndim == 1 for p in arrays)
            and set(map(len, payloads)) == {size}):
        for key in keys:
            real_key(key)
        for value in payloads:
            payload_bytes(value, size)
        raise InvalidParameterError("keys must be ints or numpy integers")
    # bytes() copies a strided uint8 row too, which join would refuse
    data = b"".join(map(bytes, payloads) if arrays else payloads)
    return (np.array(keys, np.uint32),
            np.frombuffer(data, np.uint8).reshape(-1, size))


def _retired(level: Zht) -> SlotArray:
    """The level's storage, its reals cleared to dummies in place.

    Only the real slots are written, so pages that never held a real stay
    as untouched as a fresh array's.
    """
    store = level.store
    store.clear_to_dummy(store.key != KEY_SENTINEL)
    return store
