"""Core data model: fixed-size slots, buckets and tables, keyed hashing, seeded RNG.

Every structure in this package is built out of fixed-width slots so that the
memory touched by an operation never depends on the data it carries.  A slot is
Empty (never held data), Dummy (filler that is read and written like anything
else), or Real (holds a key and a payload).  Tables are dense arrays of n
buckets times c slots; scans and bucket accesses always cover whole buckets.

Hashing is a keyed, seedable PRF: a splitmix64-style finalizer chain absorbed
over (seed, epoch, level, table).  It is vectorizable over numpy uint64 arrays,
which is what makes rebuilds affordable; statistical quality is enforced by the
chi-square tests in the suite rather than by construction.

Randomness comes from PCG64 behind a thin Rng wrapper.  Substreams are derived
from (seed, index...) via SeedSequence, so independent trials can be replayed
or parallelized without stream overlap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

# Key space: 32-bit, all-ones reserved as the non-real sentinel.
KEY_SENTINEL = 0xFFFFFFFF
MAX_REAL_KEY = 0xFFFFFFFE

DEFAULT_PAYLOAD_SIZE = 56

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_MIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


class OramError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(OramError, ValueError):
    """A structural parameter is out of its documented domain."""


class CounterExhaustedError(OramError, OverflowError):
    """A monotonic counter (epoch) ran out of range."""


class CapacityExceededError(OramError):
    """A write of a fresh key was attempted at full capacity."""


class BuildFailedError(OramError):
    """An oblivious build failed under the strict failure policy."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InsufficientDataError(OramError, ValueError):
    """A statistical check was invoked with too few samples to be meaningful."""


class StoreBrokenError(OramError):
    """The store refuses further use: an earlier build failed part-way."""


class SlotState(IntEnum):
    EMPTY = 0
    DUMMY = 1
    REAL = 2


# Plain-int copies of the states for hot loops, where an IntEnum attribute
# lookup costs more than the numpy call it feeds.
EMPTY = int(SlotState.EMPTY)
DUMMY = int(SlotState.DUMMY)
REAL = int(SlotState.REAL)


# Permitted state transitions inside structural operations.  Identity
# rewrites (x -> x) are always allowed: every touched slot is written back.
# Empty -> Dummy exists for the append log: a miss appends a dummy so the
# log's fill rate never depends on hit/miss.
_ALLOWED_TRANSITIONS = {
    (SlotState.EMPTY, SlotState.REAL),
    (SlotState.EMPTY, SlotState.DUMMY),
    (SlotState.DUMMY, SlotState.REAL),
    (SlotState.REAL, SlotState.DUMMY),
    (SlotState.REAL, SlotState.EMPTY),
}

_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle expensive internal invariant checks (used by the test suite)."""
    global _debug_checks
    _debug_checks = bool(enabled)


def debug_checks_enabled() -> bool:
    return _debug_checks


def check_transition(old_state: int, new_state: int) -> None:
    """Assert a slot state transition is one of the permitted four (or identity)."""
    if old_state == new_state:
        return
    if (SlotState(old_state), SlotState(new_state)) not in _ALLOWED_TRANSITIONS:
        raise AssertionError(
            f"forbidden slot transition {SlotState(old_state).name} -> "
            f"{SlotState(new_state).name}"
        )


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameterError(message)


@dataclass(frozen=True)
class Slot:
    """One fixed-width memory cell: state, 32-bit key, payload bytes, routing tag."""

    state: SlotState
    key: int = KEY_SENTINEL
    payload: bytes = b""
    tag: bool = False

    def __post_init__(self):
        if self.state is not SlotState.REAL:
            _require(self.key == KEY_SENTINEL, "non-real slots carry the sentinel key")
            _require(not self.tag, "non-real slots are never tagged for routing")
        else:
            _require(0 <= self.key <= MAX_REAL_KEY, "real key out of range")

    @classmethod
    def empty(cls, payload_size: int = 0) -> "Slot":
        return cls(SlotState.EMPTY, payload=bytes(payload_size))

    @classmethod
    def dummy(cls, payload_size: int = 0) -> "Slot":
        return cls(SlotState.DUMMY, payload=bytes(payload_size))

    @classmethod
    def real(cls, key: int, payload: bytes, tag: bool = False) -> "Slot":
        return cls(SlotState.REAL, key=key, payload=bytes(payload), tag=tag)

    @property
    def is_real(self) -> bool:
        return self.state is SlotState.REAL


class SlotArray:
    """Structure-of-arrays slot storage.

    Fields are parallel numpy arrays over an arbitrary leading shape; payload
    gets one extra trailing axis of payload_size bytes.  Structural code
    operates on the arrays directly; get()/put() provide the scalar Slot view.
    """

    __slots__ = ("key", "state", "tag", "payload", "payload_size")

    def __init__(self, shape, payload_size: int = DEFAULT_PAYLOAD_SIZE):
        if isinstance(shape, int):
            shape = (shape,)
        _require(payload_size >= 0, "payload_size must be non-negative")
        self.payload_size = payload_size
        self.key = np.full(shape, KEY_SENTINEL, dtype=np.uint32)
        self.state = np.full(shape, SlotState.EMPTY, dtype=np.uint8)
        self.tag = np.zeros(shape, dtype=bool)
        self.payload = np.zeros(shape + (payload_size,), dtype=np.uint8)

    @property
    def shape(self):
        return self.key.shape

    def reshape(self, shape) -> "SlotArray":
        """The same slots under a new leading shape; a view when contiguous."""
        if isinstance(shape, int):
            shape = (shape,)
        out = SlotArray.__new__(SlotArray)
        out.payload_size = self.payload_size
        out.key = self.key.reshape(shape)
        out.state = self.state.reshape(shape)
        out.tag = self.tag.reshape(shape)
        out.payload = self.payload.reshape(shape + (self.payload_size,))
        return out

    @property
    def size(self) -> int:
        return self.key.size

    def get(self, idx) -> Slot:
        return Slot(
            SlotState(int(self.state[idx])),
            key=int(self.key[idx]),
            payload=self.payload[idx].tobytes(),
            tag=bool(self.tag[idx]),
        )

    def put(self, idx, slot: Slot) -> None:
        _require(len(slot.payload) == self.payload_size, "payload width mismatch")
        if _debug_checks:
            check_transition(int(self.state[idx]), int(slot.state))
        self.key[idx] = slot.key
        self.state[idx] = slot.state
        self.tag[idx] = slot.tag
        self.payload[idx] = np.frombuffer(slot.payload, dtype=np.uint8)

    def clear(self) -> None:
        self.key.fill(KEY_SENTINEL)
        self.state.fill(EMPTY)
        self.tag.fill(False)
        self.payload.fill(0)

    def clear_to_dummy(self, mask) -> None:
        """Overwrite the masked slots with dummies (spilled/extracted cells)."""
        if _debug_checks:
            bad = mask & (self.state == EMPTY)
            assert not bad.any(), "clearing an Empty slot to Dummy"
        self.key[mask] = KEY_SENTINEL
        self.state[mask] = DUMMY
        self.tag[mask] = False
        self.payload[mask] = 0

    def real_count(self) -> int:
        return int((self.state == REAL).sum())

    def iter_slots(self):
        flat_key = self.key.reshape(-1)
        flat_state = self.state.reshape(-1)
        flat_tag = self.tag.reshape(-1)
        flat_pay = self.payload.reshape(-1, self.payload_size)
        for i in range(flat_key.size):
            yield Slot(
                SlotState(int(flat_state[i])),
                key=int(flat_key[i]),
                payload=flat_pay[i].tobytes(),
                tag=bool(flat_tag[i]),
            )


class Table(SlotArray):
    """n buckets of exactly c slots each; n must be a power of two."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: int, payload_size: int = DEFAULT_PAYLOAD_SIZE):
        _require(is_power_of_two(n), "bucket count n must be a power of two")
        _require(c >= 1, "bucket capacity c must be at least 1")
        super().__init__((n, c), payload_size)
        self.n = n
        self.c = c

    def bucket(self, b: int) -> list[Slot]:
        return [self.get((b, s)) for s in range(self.c)]


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 arrays (wraps mod 2^64)."""
    x = (x ^ (x >> _S30)) * _MIX_C1
    x = (x ^ (x >> _S27)) * _MIX_C2
    return x ^ (x >> _S31)


# Bounded: every rebuild attempt draws a fresh epoch, so an unbounded cache
# would grow by k entries per build for the life of the process.  Each Zht
# keeps its own subkeys; this cache only serves repeated bucket_indices calls.
@functools.lru_cache(maxsize=1024)
def _table_subkey(seed: int, epoch: int, level: int, table_index: int) -> np.uint64:
    """Derive the per-(epoch, level, table) 64-bit subkey by absorbing each word."""
    x = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    x = _mix64(x + _GOLDEN)
    x = _mix64(x ^ (np.uint64(epoch & 0xFFFFFFFFFFFFFFFF) + _MIX_C1))
    x = _mix64(x ^ (np.uint64((level << 16) | table_index) + _MIX_C2))
    return np.uint64(x[0])


def _keyed_bucket(keys: np.ndarray, subkeys, n: int) -> np.ndarray:
    """The hash itself: uint64 keys under (broadcast) subkeys into [0, n)."""
    return (_mix64((keys * _GOLDEN) ^ subkeys) % np.uint64(n)).astype(np.int64)


@dataclass(frozen=True)
class HashFamily:
    """Keyed hash family: (level, table_index, key) -> bucket, fresh per epoch.

    Evaluation is pure: the same (seed, epoch, level, table_index, key, n)
    always yields the same bucket.  fresh_epoch() returns a family whose
    outputs are statistically independent of the previous epoch's.
    """

    seed: int
    epoch: int = 0

    def bucket_indices(self, level: int, table_index: int, keys, n: int):
        """Vectorized hash of uint keys into [0, n).  Scalar in, scalar out."""
        _require(n >= 1, "hash range n must be at least 1")
        scalar = np.isscalar(keys)
        k = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        sub = _table_subkey(self.seed, self.epoch, level, table_index)
        out = _keyed_bucket(k, sub, n)
        return int(out[0]) if scalar else out

    def subkeys(self, level: int, count: int) -> np.ndarray:
        """uint64 subkeys of tables 0..count-1 at `level`, for path_buckets()."""
        return np.array(
            [_table_subkey(self.seed, self.epoch, level, j) for j in range(count)],
            dtype=np.uint64,
        )

    def fresh_epoch(self) -> "HashFamily":
        if self.epoch + 1 > 0xFFFFFFFFFFFFFFFF:
            raise CounterExhaustedError("epoch counter exhausted")
        return HashFamily(self.seed, self.epoch + 1)


def path_buckets(subkeys: np.ndarray, key: int, n: int) -> np.ndarray:
    """One key's bucket under each subkey: bucket_indices over all lanes at once.

    Lane j equals bucket_indices(level, j, key, n) when subkeys came from
    subkeys(level, ...).  The key is broadcast into a uint64 array first, so
    the multiply wraps silently instead of warning as a numpy scalar would.
    """
    return _keyed_bucket(np.full(subkeys.size, key, dtype=np.uint64), subkeys, n)


class Rng:
    """Seeded random stream with derivable substreams.

    Rng(seed) and Rng(seed).substream(i) are reproducible and non-overlapping
    (SeedSequence spawn keys).  Bucket draws consume exactly one 64-bit word
    per value, so stream positions are a deterministic function of call counts.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, *self.path]))
        )

    def substream(self, index: int) -> "Rng":
        return Rng(self.seed, self.path + (int(index),))

    def bits64(self, size=None) -> np.ndarray:
        return self._gen.integers(0, 1 << 64, dtype=np.uint64, size=size)

    def bucket(self, n: int) -> int:
        _require(is_power_of_two(n), "random bucket range must be a power of two")
        # the generator's raw 64-bit word, which is exactly what a full-range
        # uint64 integers() draw returns, minus its dispatch cost
        return self._gen.bit_generator.random_raw() & (n - 1)

    def buckets(self, n: int, size) -> np.ndarray:
        _require(is_power_of_two(n), "random bucket range must be a power of two")
        draws = self._gen.integers(0, 1 << 64, dtype=np.uint64, size=size)
        return (draws & np.uint64(n - 1)).astype(np.int64)

    def floats(self, size=None):
        return self._gen.random(size=size)

    def shuffle(self, arr) -> None:
        self._gen.shuffle(arr)

