"""Core data model: fixed-size slots in slot arrays, keyed hashing, seeded RNG.

Every structure in this package is built out of fixed-width slots so that the
memory touched by an operation never depends on the data it carries.  A slot is
a 32-bit key and a payload, and nothing else (routing tags live only inside a
route): it is real (holds a stored item) exactly when its key is not
KEY_SENTINEL, and a dummy (filler that is read and written like anything else)
when it is.  A fresh SlotArray is all dummies, writing a key makes a slot
real, and writing the sentinel frees it.  A table is an (n, c) SlotArray of
n buckets times c slots; scans and bucket accesses always cover whole buckets.

Hashing is a keyed splitmix64 mix, not a PRF: a finalizer chain absorbed
over (seed, epoch, level, table).  It is vectorizable over numpy uint64 arrays,
which is what makes rebuilds affordable; statistical quality is enforced by the
chi-square tests in the suite rather than by construction.

Randomness comes from PCG64 behind a thin Rng wrapper, seeded from
(seed, index...) via SeedSequence, so independent trials can be replayed
without stream overlap.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Key space: 32-bit, all-ones reserved as the non-real sentinel.
KEY_SENTINEL = 0xFFFFFFFF
MAX_REAL_KEY = 0xFFFFFFFE

DEFAULT_PAYLOAD_SIZE = 56

_MASK64 = 0xFFFFFFFFFFFFFFFF
# splitmix64's finalizer constants, as Python ints; _mix64 uses them as
# uint64 words, _mix64_word on one Python-int word
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_MIX_C1 = np.uint64(_C1)
_MIX_C2 = np.uint64(_C2)
_GOLDEN = 0x9E3779B97F4A7C15  # a Python int: exact in key * _GOLDEN
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


class OramError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(OramError, ValueError):
    """A structural parameter is out of its documented domain."""


class CapacityExceededError(OramError):
    """A write of a fresh key was attempted at full capacity."""


class BuildFailedError(OramError):
    """An oblivious build failed on every attempt its config allows."""

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


def as_int(value, name: str) -> int:
    """value as an int; InvalidParameterError unless an integer.

    A float, a str or a bool is refused, not converted: it would alias
    another value.  real_key calls operator.index inline instead, since
    every access and probe calls it.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, not {value!r}")


def _non_negative(value, name: str) -> int:
    """as_int(value, name), refused unless non-negative."""
    _require(as_int(value, name) >= 0, f"{name} must be non-negative")
    return operator.index(value)


def real_key(key) -> int:
    """key as an int; InvalidParameterError unless an integer in [0, MAX_REAL_KEY].

    A bool is refused like a float or a str: each would alias another key.
    The checks are inline, since every access and probe calls this.
    """
    if key.__class__ is bool:
        raise InvalidParameterError(f"key must be an integer, not {key!r}")
    try:
        key = operator.index(key)
    except TypeError:
        raise InvalidParameterError(f"key must be an integer, not {key!r}") from None
    if not 0 <= key <= MAX_REAL_KEY:
        raise InvalidParameterError("key out of range")
    return key


def payload_bytes(value, size: int) -> bytes:
    """value as payload bytes; InvalidParameterError unless bytes, bytearray
    or a uint8 row, of width size."""
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
    elif isinstance(value, np.ndarray) and value.dtype == np.uint8 and value.ndim == 1:
        data = value.tobytes()
    else:  # bytes() would turn an int into zeros and a list into bytes
        raise InvalidParameterError(
            f"payload must be bytes, bytearray or a uint8 row, not {type(value).__name__}")
    _require(len(data) == size, f"payload must be {size} bytes wide")
    return data


def _shape(shape) -> tuple[int, ...]:
    """A leading shape, an int or a tuple or list of them, as a tuple of
    non-negative ints; InvalidParameterError for anything else."""
    if not isinstance(shape, (tuple, list)):
        shape = (shape,)
    return tuple(_non_negative(size, "shape entry") for size in shape)


class SlotArray:
    """Structure-of-arrays slot storage.

    Fields are parallel numpy arrays over an arbitrary leading shape; payload
    gets one extra trailing axis of payload_size bytes.  Every slot of the
    package lives in one: a table is an (n, c) array of n buckets of c slots,
    and code reads and writes the key and payload arrays directly.  A slot is
    real where key != KEY_SENTINEL; a fresh array is all dummies.
    """

    __slots__ = ("key", "payload", "payload_size")

    def __init__(self, shape, payload_size: int = DEFAULT_PAYLOAD_SIZE):
        shape = _shape(shape)
        payload_size = _non_negative(payload_size, "payload_size")
        self.payload_size = payload_size
        self.key = np.full(shape, KEY_SENTINEL, dtype=np.uint32)
        self.payload = np.zeros(shape + (payload_size,), dtype=np.uint8)

    @property
    def shape(self):
        return self.key.shape

    def _view(self, key: np.ndarray, payload: np.ndarray) -> "SlotArray":
        out = SlotArray.__new__(SlotArray)
        out.payload_size = self.payload_size
        out.key, out.payload = key, payload
        return out

    def __getitem__(self, idx) -> "SlotArray":
        """The slots at a leading index; a view for an int or a slice."""
        return self._view(self.key[idx], self.payload[idx])

    def reshape(self, shape) -> "SlotArray":
        """The same slots under a new leading shape; a view when contiguous."""
        shape = _shape(shape)
        return self._view(self.key.reshape(shape),
                          self.payload.reshape(shape + (self.payload_size,)))

    @property
    def size(self) -> int:
        return self.key.size

    def clear(self) -> None:
        self.key.fill(KEY_SENTINEL)
        self.payload.fill(0)

    def clear_to_dummy(self, mask) -> None:
        """Overwrite the masked slots with dummies (spilled/extracted cells)."""
        self.key[mask] = KEY_SENTINEL
        self.payload[mask] = 0

    def real_count(self) -> int:
        return int(np.count_nonzero(self.key != KEY_SENTINEL))


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
    """splitmix64 finalizer over a uint64 array, in place (wraps mod 2^64).

    Returns x.  Callers pass an array of their own, never their input.
    """
    x ^= x >> _S30
    x *= _MIX_C1
    x ^= x >> _S27
    x *= _MIX_C2
    x ^= x >> _S31
    return x


def _mix64_word(x: int) -> int:
    """_mix64 of one word held as a Python int in [0, 2^64)."""
    x ^= x >> 30
    x = x * _C1 & _MASK64
    x ^= x >> 27
    x = x * _C2 & _MASK64
    return x ^ x >> 31


def _table_subkeys(seed: int, epoch: int, level: int, tables) -> list[int]:
    """The 64-bit subkeys of (epoch, level, table) for each table in `tables`.

    Each word is absorbed in turn: the seed, then the epoch, then
    (level << 16) | table, every addition and product wrapping mod 2^64.
    The seed and epoch are absorbed once for all the tables.
    """
    level = _non_negative(level, "level")
    _require(all(j < 1 << 16 for j in tables), "at most 2^16 tables per level")
    x = _mix64_word((seed + _GOLDEN) & _MASK64)
    x = _mix64_word(x ^ ((epoch & _MASK64) + _C1) & _MASK64)
    return [_mix64_word(x ^ ((((level << 16) | j) + _C2) & _MASK64))
            for j in tables]


def _keyed_bucket(x: np.ndarray, n) -> np.ndarray:
    """The hash itself, in place: lanes x = (key * G) ^ subkey into [0, n).

    x is a fresh uint64 array that the caller owns; it is mixed and reduced
    where it stands and returned as an int64 view (exact: every bucket is
    below n <= 2^63).  n is an int or an array of counts, one per lane.
    """
    x = _mix64(x)
    x %= np.asarray(n, dtype=np.uint64)
    return x.view(np.int64)


@dataclass(frozen=True)
class HashFamily:
    """Keyed hash family: (level, table_index, key) -> bucket, fresh per epoch.

    Evaluation is pure: the same (seed, epoch, level, table_index, key, n)
    always yields the same bucket.  Families of one seed under different
    epochs give statistically independent outputs; each build attempt takes
    its level's next epoch.  seed and epoch are non-negative integers: a
    bool or a float is refused, not read as another seed.
    """

    seed: int
    epoch: int = 0

    def __post_init__(self):
        for name in ("seed", "epoch"):
            # frozen: set the checked int
            object.__setattr__(self, name, _non_negative(getattr(self, name), name))

    def bucket_indices(self, level: int, table_index: int, keys, n: int):
        """Vectorized hash of uint keys into [0, n).  Scalar in, scalar out."""
        table = (_non_negative(table_index, "table_index"),)
        _require(as_int(n, "n") >= 1, "hash range n must be at least 1")
        scalar = np.isscalar(keys)
        # the product is a fresh array, so the caller's keys are never mixed
        x = np.atleast_1d(np.asarray(keys, dtype=np.uint64)) * _GOLDEN
        x ^= _table_subkeys(self.seed, self.epoch, level, table)[0]
        out = _keyed_bucket(x, n)
        return int(out[0]) if scalar else out

    def subkeys(self, level: int, count: int) -> np.ndarray:
        """uint64 subkeys of tables 0..count-1 at `level`, for path_buckets()."""
        tables = range(_non_negative(count, "count"))
        return np.array(_table_subkeys(self.seed, self.epoch, level, tables),
                        dtype=np.uint64)


def path_buckets(subkeys: np.ndarray, key: int, n) -> np.ndarray:
    """One key's bucket under each subkey: bucket_indices over all lanes at once.

    Lane j equals bucket_indices(level, j, key, n) when subkeys came from
    subkeys(level, ...).  n is one bucket count for every lane or an array
    of one count per lane, so the lanes of several levels, each with its own
    subkeys and n, hash in one call.  key is a real key (core.real_key):
    key * G mod 2^64 is taken as a Python int, the same word a uint64
    multiply gives, and XORed into a fresh copy of the subkeys.
    """
    return _keyed_bucket(subkeys ^ ((key * _GOLDEN) & _MASK64), n)


class Rng:
    """Seeded random stream, one per (seed, path): SeedSequence entropy.

    Paths that differ past trailing zeros never overlap (the entropy is
    zero-padded: Rng(s) is Rng(s, (0,))).  Bucket draws consume exactly one
    64-bit word per value, so stream positions are a function of call counts.
    """

    __slots__ = ("_gen",)

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        words = [as_int(seed, "seed"), *(as_int(i, "substream index") for i in path)]
        # SeedSequence would raise a bare ValueError
        _require(min(words) >= 0,
                 "a seed and its substream indices must be non-negative")
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    def bits64(self, size=None) -> np.ndarray | int:
        # the generator's raw 64-bit words: the stream a full-range uint64
        # integers() draw returns, without its per-call dispatch (an int when
        # size is None)
        return self._gen.bit_generator.random_raw(size)

    def bucket(self, n: int, size=None) -> int | np.ndarray:
        """Uniform buckets in [0, n), n a power of two: an int when size is
        None, else an int64 array of shape size."""
        _require(is_power_of_two(n), "random bucket range must be a power of two")
        draws = self._gen.bit_generator.random_raw(size)
        if size is None:
            return draws & (n - 1)
        # masked in place: the values are below n <= 2^63, so the int64 view
        # of the draw buffer is exact and no temporary is made
        draws &= np.uint64(n - 1)
        return draws.view(np.int64)
