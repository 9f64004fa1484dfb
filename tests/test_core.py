"""Slots, tables, the keyed hash family, and the seeded RNG."""

import warnings

import numpy as np
import pytest

from pyramid_oram.core import (
    KEY_SENTINEL,
    MAX_REAL_KEY,
    CounterExhaustedError,
    HashFamily,
    InvalidParameterError,
    Rng,
    Slot,
    SlotArray,
    Table,
    is_power_of_two,
    path_buckets,
)
from pyramid_oram.trace import chi_square_uniform

ALPHA = 0.001

# collision rate of two independent hash epochs into n = 256 buckets over
# 10^4 keys: 1/256 give or take three binomial sigmas
COLLISION_EXPECTED = 1 / 256
COLLISION_SLACK = 0.00187


# -- slots ---------------------------------------------------------------------


def test_slot_classmethods():
    d = Slot.dummy(4)
    r = Slot.real(7, b"\x01\x02\x03\x04")
    assert d.key == KEY_SENTINEL and not d.is_real and d.payload == bytes(4)
    assert r.is_real and r.key == 7 and r.payload == b"\x01\x02\x03\x04"
    assert Slot(3).is_real and not Slot().is_real   # realness is the key alone


def test_slot_validation():
    with pytest.raises(InvalidParameterError):
        Slot(KEY_SENTINEL + 1)                # keys are 32-bit
    with pytest.raises(InvalidParameterError):
        Slot.real(KEY_SENTINEL, b"")          # sentinel is not a real key
    with pytest.raises(InvalidParameterError):
        Slot.real(-1, b"")
    Slot.real(MAX_REAL_KEY, b"")              # top of the range is fine


# -- slot arrays ------------------------------------------------------------------


def test_slot_array_roundtrip():
    arr = SlotArray(4, payload_size=3)
    slot = Slot.real(9, b"abc")
    arr.put(2, slot)
    back = arr.get(2)
    assert back == slot
    assert arr.real_count() == 1
    assert (arr.key != KEY_SENTINEL).tolist() == [False, False, True, False]
    arr.put(2, Slot.dummy(3))                 # writing the sentinel frees it
    assert arr.real_count() == 0 and arr.key[2] == KEY_SENTINEL


def test_clear_to_dummy_masks():
    arr = SlotArray(4, payload_size=2)
    arr.put(1, Slot.real(5, b"xy"))
    arr.put(2, Slot.real(6, b"zw"))
    mask = np.array([False, True, True, False])
    arr.clear_to_dummy(mask)
    assert arr.real_count() == 0
    assert arr.get(1) == arr.get(2) == Slot.dummy(2)
    assert (arr.key == KEY_SENTINEL).all()


def test_table_validation():
    Table(8, 2, payload_size=1)
    with pytest.raises(InvalidParameterError):
        Table(6, 2, payload_size=1)
    with pytest.raises(InvalidParameterError):
        Table(8, 0, payload_size=1)


def test_is_power_of_two():
    assert [x for x in range(1, 20) if is_power_of_two(x)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)


# -- hash family -------------------------------------------------------------------


def test_hash_determinism_and_range():
    fam = HashFamily(123, epoch=5)
    for key in (0, 1, 77, MAX_REAL_KEY):
        b1 = fam.bucket_indices(2, 1, key, 64)
        b2 = fam.bucket_indices(2, 1, key, 64)
        assert b1 == b2
        assert 0 <= b1 < 64
        assert isinstance(b1, int)


def test_hash_scalar_matches_vector():
    fam = HashFamily(9)
    keys = np.arange(500, dtype=np.uint64)
    vec = fam.bucket_indices(1, 0, keys, 32)
    scalars = [fam.bucket_indices(1, 0, int(k), 32) for k in keys]
    assert vec.tolist() == scalars


def test_hash_separates_tables_levels_epochs():
    keys = np.arange(2000, dtype=np.uint64)
    base = HashFamily(42).bucket_indices(1, 0, keys, 256)
    for other in (
        HashFamily(42).bucket_indices(1, 1, keys, 256),
        HashFamily(42).bucket_indices(2, 0, keys, 256),
        HashFamily(42, epoch=1).bucket_indices(1, 0, keys, 256),
        HashFamily(43).bucket_indices(1, 0, keys, 256),
    ):
        assert (base != other).any()


def test_hash_bucket_uniformity():
    fam = HashFamily(7)
    n = 256
    keys = np.arange(1 << 16, dtype=np.uint64)
    buckets = fam.bucket_indices(3, 2, keys, n)
    counts = np.bincount(buckets, minlength=n)
    result = chi_square_uniform(counts, significance=ALPHA)
    assert result.passed, f"hash buckets non-uniform: p={result.p_value:.2e}"


def test_fresh_epoch_collision_rate():
    fam = HashFamily(11, epoch=0)
    nxt = fam.fresh_epoch()
    assert nxt.epoch == 1 and nxt.seed == fam.seed
    keys = np.arange(10_000, dtype=np.uint64)
    a = fam.bucket_indices(1, 0, keys, 256)
    b = nxt.bucket_indices(1, 0, keys, 256)
    rate = float((a == b).mean())
    assert abs(rate - COLLISION_EXPECTED) <= COLLISION_SLACK, (
        f"epoch collision rate {rate:.5f} outside "
        f"{COLLISION_EXPECTED} +- {COLLISION_SLACK}"
    )


def test_epoch_counter_exhaustion():
    fam = HashFamily(1, epoch=(1 << 64) - 1)
    with pytest.raises(CounterExhaustedError):
        fam.fresh_epoch()


def test_hash_bucket_helper():
    # path_buckets hashes one key under every table's subkey at once; lane j
    # must equal the scalar bucket_indices of table j, with no overflow warning
    fam = HashFamily(5, epoch=3)
    subkeys = fam.subkeys(2, 4)
    assert subkeys.dtype == np.uint64 and subkeys.shape == (4,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in (0, 1, 99, 2**31, MAX_REAL_KEY):
            lanes = path_buckets(subkeys, key, 16)
            assert lanes.tolist() == [
                fam.bucket_indices(2, j, key, 16) for j in range(4)
            ]


def test_path_buckets_with_per_lane_counts():
    # the hierarchy hashes every occupied level's path in one call: lanes of
    # levels with different n, each lane reduced modulo its own count
    fam = HashFamily(11, epoch=2)
    shapes = [(1, 4, 2), (3, 16, 3), (6, 128, 1), (7, 256, 4)]  # (level, n, k)
    subkeys = np.concatenate([fam.subkeys(level, k) for level, _, k in shapes])
    counts = np.concatenate([np.full(k, n) for _, n, k in shapes])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in (0, 1, 99, 2**31, MAX_REAL_KEY):
            want = [
                fam.bucket_indices(level, j, key, n)
                for level, n, k in shapes for j in range(k)
            ]
            for dtype in (np.uint64, np.int64):
                lanes = path_buckets(subkeys, key, counts.astype(dtype))
                assert lanes.tolist() == want
        assert path_buckets(subkeys[:0], 5, counts[:0].astype(np.uint64)).size == 0


# -- rng -----------------------------------------------------------------------------


def test_rng_draws_are_the_full_range_integer_stream():
    # bits64 and buckets read the generator's raw words; they must equal the
    # full-range uint64 integers() stream, or every recorded trace changes
    def reference():
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([21, 3])))

    rng, ref = Rng(21, (3,)), reference()
    for shape in ((3, 4), (100000,), 7, (1, 32, 8)):
        got = rng.bits64(shape)
        assert got.dtype == np.uint64 and got.shape == np.empty(shape).shape
        assert np.array_equal(got, ref.integers(0, 1 << 64, dtype=np.uint64,
                                                size=shape))
    assert rng.bits64() == int(ref.integers(0, 1 << 64, dtype=np.uint64))
    want = ref.integers(0, 1 << 64, dtype=np.uint64, size=(100, 3)) & np.uint64(63)
    got = rng.buckets(64, (100, 3))
    assert got.dtype == np.int64 and np.array_equal(got, want.astype(np.int64))
    assert got.flags.writeable


def test_rng_replayable():
    a = Rng(77, (1, 2))
    b = Rng(77, (1, 2))
    assert a.bits64(16).tolist() == b.bits64(16).tolist()
    assert a.bucket(64) == b.bucket(64)


def test_rng_substreams_differ():
    root = Rng(5)
    s0 = root.substream(0).bits64(8)
    s1 = root.substream(1).bits64(8)
    assert s0.tolist() != s1.tolist()


def test_rng_bucket_draws():
    rng = Rng(3)
    draws = rng.buckets(32, 5000)
    assert draws.min() >= 0 and draws.max() < 32
    counts = np.bincount(draws, minlength=32)
    assert chi_square_uniform(counts, significance=ALPHA).passed
    with pytest.raises(InvalidParameterError):
        rng.bucket(33)
    assert 0 <= rng.bucket(8) < 8


def test_rng_matrix_draw_matches_sequential_rows():
    # row-major matrix fills consume the stream like repeated row draws; the
    # bit-identical routing paths depend on this
    a = Rng(9, (4,)).bits64((6, 5))
    b = Rng(9, (4,))
    rows = [b.bits64(5) for _ in range(6)]
    assert a.tolist() == [r.tolist() for r in rows]
