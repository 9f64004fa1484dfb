"""Core data model: fixed-size slots, buckets and tables, keyed hashing, seeded RNG.

Every structure in this package is built out of fixed-width slots so that the
memory touched by an operation never depends on the data it carries.  A slot is
a 32-bit key and a payload, and nothing else (routing tags live only inside a
route): it is real (holds a stored item) exactly when its key is not
KEY_SENTINEL, and a dummy (filler that is read and written like anything else)
when it is.  A fresh SlotArray is all dummies, writing a key makes a slot
real, and writing the sentinel frees it.  Tables are dense arrays of n buckets
times c slots; scans and bucket accesses always cover whole buckets.

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
from dataclasses import dataclass

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


_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle expensive internal invariant checks (used by the test suite)."""
    global _debug_checks
    _debug_checks = bool(enabled)


def debug_checks_enabled() -> bool:
    return _debug_checks


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameterError(message)


@dataclass(frozen=True)
class Slot:
    """One fixed-width memory cell: 32-bit key and payload bytes.

    Real iff the key is not KEY_SENTINEL.
    """

    key: int = KEY_SENTINEL
    payload: bytes = b""

    def __post_init__(self):
        _require(0 <= self.key <= KEY_SENTINEL, "key out of range")

    @classmethod
    def dummy(cls, payload_size: int = 0) -> "Slot":
        return cls(payload=bytes(payload_size))

    @classmethod
    def real(cls, key: int, payload: bytes) -> "Slot":
        _require(0 <= key <= MAX_REAL_KEY, "real key out of range")
        return cls(key, bytes(payload))

    @property
    def is_real(self) -> bool:
        return self.key != KEY_SENTINEL


class SlotArray:
    """Structure-of-arrays slot storage.

    Fields are parallel numpy arrays over an arbitrary leading shape; payload
    gets one extra trailing axis of payload_size bytes.  Structural code
    operates on the arrays directly; get()/put() provide the scalar Slot view.
    A slot is real where key != KEY_SENTINEL; a fresh array is all dummies.
    """

    __slots__ = ("key", "payload", "payload_size")

    def __init__(self, shape, payload_size: int = DEFAULT_PAYLOAD_SIZE):
        if isinstance(shape, int):
            shape = (shape,)
        _require(payload_size >= 0, "payload_size must be non-negative")
        self.payload_size = payload_size
        self.key = np.full(shape, KEY_SENTINEL, dtype=np.uint32)
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
        out.payload = self.payload.reshape(shape + (self.payload_size,))
        return out

    @property
    def size(self) -> int:
        return self.key.size

    def get(self, idx) -> Slot:
        return Slot(int(self.key[idx]), self.payload[idx].tobytes())

    def put(self, idx, slot: Slot) -> None:
        _require(len(slot.payload) == self.payload_size, "payload width mismatch")
        self.key[idx] = slot.key
        self.payload[idx] = np.frombuffer(slot.payload, dtype=np.uint8)

    def clear(self) -> None:
        self.key.fill(KEY_SENTINEL)
        self.payload.fill(0)

    def clear_to_dummy(self, mask) -> None:
        """Overwrite the masked slots with dummies (spilled/extracted cells)."""
        self.key[mask] = KEY_SENTINEL
        self.payload[mask] = 0

    def real_count(self) -> int:
        return int(np.count_nonzero(self.key != KEY_SENTINEL))


class Table(SlotArray):
    """n buckets of exactly c slots each; n must be a power of two."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: int, payload_size: int = DEFAULT_PAYLOAD_SIZE):
        _require(is_power_of_two(n), "bucket count n must be a power of two")
        _require(c >= 1, "bucket capacity c must be at least 1")
        super().__init__((n, c), payload_size)
        self.n = n
        self.c = c

    @classmethod
    def row_of(cls, store: SlotArray, j: int) -> "Table":
        """Row j of an (rows, n, c) store, as a Table sharing the store's memory."""
        tbl = cls.__new__(cls)
        _, tbl.n, tbl.c = store.shape
        tbl.payload_size = store.payload_size
        tbl.key = store.key[j]
        tbl.payload = store.payload[j]
        return tbl


def rank_within_group(groups: np.ndarray) -> np.ndarray:
    """Each element's rank among the earlier elements of its group.

    rank[i] counts the j < i with groups[j] == groups[i]: the arrival order of
    i at its bucket, when groups are bucket ids.
    """
    order = np.argsort(groups, kind="stable")
    ordered = groups[order]
    # position in sorted order minus where the element's group starts
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.searchsorted(ordered, ordered)
    return rank


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


def _keyed_bucket(keys: np.ndarray, subkeys, n) -> np.ndarray:
    """The hash itself: uint64 keys under (broadcast) subkeys into [0, n).

    n is an int or an array of counts broadcast against the lanes.
    """
    n = np.asarray(n, dtype=np.uint64)
    return (_mix64((keys * _GOLDEN) ^ subkeys) % n).astype(np.int64)


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


def path_buckets(subkeys: np.ndarray, key: int, n) -> np.ndarray:
    """One key's bucket under each subkey: bucket_indices over all lanes at once.

    Lane j equals bucket_indices(level, j, key, n) when subkeys came from
    subkeys(level, ...).  n is one bucket count for every lane or an array
    of one count per lane, so the lanes of several levels, each with its own
    subkeys and n, hash in one call.  The key is broadcast into a uint64 array
    first, so the multiply wraps silently instead of warning as a numpy scalar
    would.
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

    def bits64(self, size=None) -> np.ndarray | int:
        # the generator's raw 64-bit words: the stream a full-range uint64
        # integers() draw returns, without its per-call dispatch (an int when
        # size is None)
        return self._gen.bit_generator.random_raw(size)

    def bucket(self, n: int) -> int:
        _require(is_power_of_two(n), "random bucket range must be a power of two")
        return self._gen.bit_generator.random_raw() & (n - 1)

    def buckets(self, n: int, size) -> np.ndarray:
        _require(is_power_of_two(n), "random bucket range must be a power of two")
        # masked in place: the values are below n <= 2^63, so the int64 view
        # of the draw buffer is exact and no temporary is made
        draws = self._gen.bit_generator.random_raw(size)
        draws &= np.uint64(n - 1)
        return draws.view(np.int64)

    def floats(self, size=None):
        return self._gen.random(size=size)

    def shuffle(self, arr) -> None:
        self._gen.shuffle(arr)

