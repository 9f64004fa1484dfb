"""The hierarchy: a scanned append log in front of geometrically growing levels.

Level 0 is a plain array of p slots, read in full on every access.  Level j
(1-based) is a zigzag table set of n_j = 2^(j-1) * p buckets; the last of l =
log2(N/p) + 1 levels has bucket count equal to the capacity N.  An access
scans the log, then walks the levels in order, really searching until the key
is found and making indistinguishable dummy searches afterwards.  The result
is re-appended to the log at position t mod p, so the log fills at one slot
per access regardless of hits, misses, reads, or writes.

Every p accesses the log (plus every level smaller than the target) is rebuilt
into the level addressed by the trailing-zero count of t/p, and every N
accesses everything is rebuilt into a fresh last level under a fresh hash
epoch.  Which levels exist at any time is therefore a public function of t
alone: level j < l is occupied exactly when bit j-1 of t/p is set, and the
last level is occupied once t reaches N (or after a bulk load).  online_cost()
is the closed form of the per-access bucket count this schedule implies, and
the suite holds the implementation to it exactly.

The one access-pattern caveat is inherent to search-until-found: reading a key
that is absent performs a real search at every level, so reading the same
absent key twice repeats those bucket positions.  The debug-mode search log
raises on any repeated real search at a level between its rebuilds, which
makes the caveat checkable; stored keys never trip it because a found key
moves to the log and only returns to a level when that level is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_PAYLOAD_SIZE,
    DUMMY,
    KEY_SENTINEL,
    MAX_REAL_KEY,
    REAL,
    BuildFailedError,
    CapacityExceededError,
    HashFamily,
    InvalidParameterError,
    Rng,
    Slot,
    SlotArray,
    StoreBrokenError,
    _require,
    check_transition,
    debug_checks_enabled,
    is_power_of_two,
)
from .ozht import BuildReport, build_access_count, oblivious_build
from .trace import L0_REGION, TraceOp, TraceRecorder
from .zht import Zht

DEFAULT_C = 4

CONFIG_VERSION = 1


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
    failure_policy: str = "strict"
    max_retries: int = 3
    k_override: int | None = None
    c_override: int | None = None

    def __post_init__(self):
        _require(is_power_of_two(self.capacity), "capacity must be a power of two")
        _require(is_power_of_two(self.first_level_size),
                 "first_level_size must be a power of two")
        _require(2 <= self.first_level_size <= self.capacity,
                 "first_level_size must be in [2, capacity]")
        _require(self.payload_size >= 1, "payload_size must be at least 1")
        _require(self.failure_policy in ("strict", "retry"),
                 "failure_policy must be 'strict' or 'retry'")
        _require(self.max_retries >= 0, "max_retries must be non-negative")
        if self.k_override is not None:
            _require(self.k_override >= 1, "k_override must be at least 1")
        if self.c_override is not None:
            _require(self.c_override >= 1, "c_override must be at least 1")

    @property
    def num_levels(self) -> int:
        ratio = self.capacity // self.first_level_size
        return (ratio.bit_length() - 1) + 1

    @property
    def levels(self) -> tuple[LevelParams, ...]:
        out = []
        for j in range(1, self.num_levels + 1):
            n = (1 << (j - 1)) * self.first_level_size
            k = self.k_override if self.k_override is not None else default_k(n)
            c = self.c_override if self.c_override is not None else DEFAULT_C
            out.append(LevelParams(j, n, k, c))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "capacity": self.capacity,
            "first_level_size": self.first_level_size,
            "payload_size": self.payload_size,
            "seed": self.seed,
            "failure_policy": self.failure_policy,
            "max_retries": self.max_retries,
            "k_override": self.k_override,
            "c_override": self.c_override,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PyramidConfig":
        if data.get("version") != CONFIG_VERSION:
            raise InvalidParameterError(
                f"unsupported config version {data.get('version')!r}"
            )
        fields = {key: value for key, value in data.items() if key != "version"}
        return cls(**fields)


@dataclass(frozen=True)
class AccessRecord:
    """Public-by-design facts about one access."""

    op_index: int
    op: str
    key: int
    found: bool
    rebuilt_level: int
    online_buckets: int
    total_buckets: int


@dataclass(frozen=True)
class RebuildInfo:
    """One rebuild: target level, inputs, attempts, bucket-access cost."""

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


def _concat_slot_arrays(parts: list[SlotArray], payload_size: int) -> SlotArray:
    """One fresh flat array holding every slot of `parts`, in order."""
    total = sum(part.size for part in parts)
    out = SlotArray(total, payload_size)
    at = 0
    for part in parts:
        end = at + part.size
        out.key[at:end] = part.key.reshape(-1)
        out.state[at:end] = part.state.reshape(-1)
        out.tag[at:end] = part.tag.reshape(-1)
        out.payload[at:end] = part.payload.reshape(-1, payload_size)
        at = end
    return out


class PyramidOram:
    """Keyed oblivious store over fixed-width payloads.

    recorder captures the online access pattern (log scan plus level probes);
    build_recorder captures rebuild traffic.  Both default to disabled
    recorders so the hot path stays cheap.

    A BuildFailedError leaves the store part-way through an access (counter
    advanced, log not yet merged), so after one every access and bulk_load
    raises StoreBrokenError; stored_items() still shows what it holds.
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
        self.t = 0
        self.real_count = 0
        self.epochs = [0] * (config.num_levels + 1)
        self.last_rebuild: RebuildInfo | None = None
        self.broken_by: BuildFailedError | None = None
        self._rng = Rng(config.seed, (0,))
        self._l0_indices = np.arange(p)
        self._search_log: dict[int, set[int]] = {
            j: set() for j in range(1, config.num_levels + 1)
        }

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
        """One access; returns the pre-access payload (None on a miss)."""
        self._refuse_if_broken()
        if op not in ("read", "write"):
            raise InvalidParameterError("op must be 'read' or 'write'")
        _require(0 <= key <= MAX_REAL_KEY, "key out of range")
        if op == "write":
            if value is None or len(value) != self.config.payload_size:
                raise InvalidParameterError("write value must match payload_size")
        op_index = self.t
        if debug_checks_enabled():
            self._assert_schedule_consistent()

        found, payload = self._scan_level0(key)
        online = self.config.first_level_size
        for j, level in self._occupied_levels():
            online += level.k
            if found:
                level.dummy_search(self._rng, recorder=self.recorder)
                continue
            if debug_checks_enabled():
                self._log_real_search(j, key)
            hit = level.search(key, remove=True, recorder=self.recorder)
            if hit is not None:
                found = True
                payload = hit.payload

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

        Pads the input to exactly `capacity` slots so the build shape is a
        constant.  Loading nothing is a no-op.
        """
        self._refuse_if_broken()
        items = list(items)
        _require(self.t == 0 and self.real_count == 0 and not self.loaded,
                 "bulk_load requires a fresh store")
        if not items:
            return None
        n_total = self.config.capacity
        _require(len(items) <= n_total, "bulk load exceeds capacity")
        keys = np.array([key for key, _ in items], dtype=np.int64)
        _require(int(keys.min()) >= 0 and int(keys.max()) <= MAX_REAL_KEY,
                 "key out of range")
        _require(np.unique(keys).size == keys.size, "duplicate keys in bulk load")
        elems = SlotArray(n_total, self.config.payload_size)
        for row, (key, payload) in enumerate(items):
            elems.put(row, Slot.real(int(key), payload))
        report = self._build_level(self.config.num_levels, elems)
        self.real_count = len(items)
        return report

    def stored_items(self) -> dict[int, bytes]:
        """Snapshot of every stored (key, payload); a debugging aid, not oblivious."""
        out: dict[int, bytes] = {}
        mask = self.level0.state == REAL
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

    def _occupied_levels(self):
        for j in range(1, self.config.num_levels + 1):
            level = self.levels[j]
            if level is not None:
                yield j, level

    def _assert_schedule_consistent(self) -> None:
        live = {j for j, _ in self._occupied_levels()}
        want = {
            j for j in range(1, self.config.num_levels + 1)
            if level_occupied(self.config, j, self.t, self.loaded)
        }
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
        if self.recorder.enabled:
            self.recorder.record_block(
                L0_REGION, self._l0_indices, TraceOp.READ_WRITE
            )
        match = (l0.state == REAL) & (l0.key == key)
        if not match.any():
            return False, None
        byte_mask = match[:, None] * np.uint8(0xFF)
        payload = (l0.payload & byte_mask).max(axis=0).tobytes()
        l0.clear_to_dummy(match)
        return True, payload

    def _append(self, op: str, key: int, found: bool, payload: bytes | None,
                value: bytes | None) -> None:
        # shares the bucket access already made by the log scan, so it adds
        # no trace event; the written slot is Real on a hit or write, Dummy
        # on a read miss, and the log advances one slot either way
        l0 = self.level0
        slot_idx = self.t % self.config.first_level_size
        data = value if op == "write" else payload if found else None
        state = REAL if data is not None else DUMMY
        if debug_checks_enabled():
            check_transition(int(l0.state[slot_idx]), state)
        l0.key[slot_idx] = key if data is not None else KEY_SENTINEL
        l0.state[slot_idx] = state
        l0.tag[slot_idx] = False
        l0.payload[slot_idx] = 0 if data is None else np.frombuffer(data, np.uint8)

    def _rebuild_if_due(self) -> RebuildInfo | None:
        target = rebuild_target(self.config, self.t)
        if target < 0:
            return None
        full = target == self.config.num_levels and self.t % self.capacity == 0
        parts = [self.level0]
        for i in range(1, target):
            level = self.levels[i]
            assert level is not None, f"source level {i} empty at t={self.t}"
            parts.append(level.slot_array())
        if full and self.levels[target] is not None:
            parts.append(self.levels[target].slot_array())
        gathered = _concat_slot_arrays(parts, self.config.payload_size)
        self._build_level(target, gathered)
        self.level0.clear()
        for i in range(1, target):
            self.levels[i] = None
            self._search_log[i].clear()
        return self.last_rebuild

    def _build_level(self, target: int, elems: SlotArray) -> BuildReport:
        lp = self.config.levels[target - 1]
        attempts_allowed = (
            1 if self.config.failure_policy == "strict"
            else 1 + self.config.max_retries
        )
        report: BuildReport | None = None
        for attempt in range(1, attempts_allowed + 1):
            self.epochs[target] += 1
            fam = HashFamily(self.config.seed, self.epochs[target])
            z, report = oblivious_build(
                elems, lp.n, lp.k, lp.c, fam, self._rng,
                level_id=target, recorder=self.build_recorder,
            )
            if report.success:
                self.levels[target] = z
                self._search_log[target].clear()
                self.last_rebuild = RebuildInfo(
                    level=target,
                    m_total=report.m_total,
                    attempts=attempt,
                    access_count=build_access_count(report.m_total, lp.n, lp.k, lp.c),
                )
                return report
        assert report is not None
        self.broken_by = BuildFailedError(
            f"level {target} build failed after {attempts_allowed} attempt(s): "
            f"{report.failure_reason}",
            report,
        )
        raise self.broken_by
