"""Slot arrays, the keyed hash family, and the seeded RNG."""

import warnings

import numpy as np
import pytest

from pyramid_oram.analysis import mc_throw_spill
from pyramid_oram.core import (
    KEY_SENTINEL,
    MAX_REAL_KEY,
    HashFamily,
    InvalidParameterError,
    Rng,
    SlotArray,
    is_power_of_two,
    path_buckets,
)
from pyramid_oram.trace import chi_square_uniform

ALPHA = 0.001

# collision rate of two independent hash epochs into n = 256 buckets over
# 10^4 keys: 1/256 give or take three binomial sigmas
COLLISION_EXPECTED = 1 / 256
COLLISION_SLACK = 0.00187


# -- slot arrays ------------------------------------------------------------------


def test_clear_to_dummy_masks():
    arr = SlotArray(4, payload_size=2)
    arr.key[1:3] = [5, 6]
    arr.payload[1:3] = np.frombuffer(b"xyzw", np.uint8).reshape(2, 2)
    mask = np.array([False, True, True, False])
    arr.clear_to_dummy(mask)
    assert arr.real_count() == 0
    assert (arr.key == KEY_SENTINEL).all() and not arr.payload.any()


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


def test_hash_refuses_table_indices_that_alias_the_next_level():
    # the subkey absorbs (level << 16) | table, so table 2^16 of level 0
    # would hash as table 0 of level 1: both that index and a count of more
    # than 2^16 tables are refused, and the largest of each still hashes
    fam = HashFamily(3)
    keys = np.arange(100, dtype=np.uint64)
    with pytest.raises(InvalidParameterError, match="2\\^16 tables per level"):
        fam.bucket_indices(0, 1 << 16, keys, 64)
    with pytest.raises(InvalidParameterError, match="2\\^16 tables per level"):
        fam.subkeys(0, (1 << 16) + 1)
    last = fam.subkeys(0, 1 << 16)[-1]
    assert fam.bucket_indices(0, (1 << 16) - 1, keys, 64).tolist() == [
        path_buckets(np.array([last]), int(k), 64)[0] for k in keys]


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
    nxt = HashFamily(11, epoch=1)
    keys = np.arange(10_000, dtype=np.uint64)
    a = fam.bucket_indices(1, 0, keys, 256)
    b = nxt.bucket_indices(1, 0, keys, 256)
    rate = float((a == b).mean())
    assert abs(rate - COLLISION_EXPECTED) <= COLLISION_SLACK, (
        f"epoch collision rate {rate:.5f} outside "
        f"{COLLISION_EXPECTED} +- {COLLISION_SLACK}"
    )


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


def test_subkeys_frozen_at_wide_and_negative_seeds():
    # values of the per-table derivation (one 1-element numpy absorb chain
    # per table); the seed and epoch enter modulo 2^64.  A negative seed is
    # refused (test_hash_family_refuses_negative_and_non_integer_seeds), and
    # 2^64 - 5 enters as the word -5 would
    assert HashFamily((1 << 64) + 12345, 7).subkeys(3, 4).tolist() == [
        4230947197748801397, 8689071519745906437,
        7771969460912176611, 5830219729319993143]
    assert HashFamily((1 << 64) - 5, 2).subkeys(11, 3).tolist() == [
        6683040099069214644, 10719205022308413310, 16082535636289748786]
    assert HashFamily(2**70 + 3, 2**64 + 9).subkeys(0, 2).tolist() == [
        6170631935373805367, 10687766249259869809]
    with pytest.raises(InvalidParameterError, match="non-negative"):
        HashFamily(-5, 2)
    # one table's subkey is the one bucket_indices mixes in
    fam = HashFamily((1 << 64) - 5, 2)
    assert fam.bucket_indices(11, 2, 77, 1 << 40) == path_buckets(
        fam.subkeys(11, 3), 77, 1 << 40)[2]


def test_hash_leaves_its_inputs_unchanged():
    # the hash mixes its lanes in place; the lanes must be its own copy, never
    # the caller's keys (a uint64 column converts without a copy) or subkeys
    fam = HashFamily(9, epoch=4)
    for dtype in (np.uint64, np.uint32, np.int64):
        keys = np.arange(0, 4000, 7, dtype=dtype)
        before = keys.copy()
        fam.bucket_indices(3, 1, keys, 64)
        assert np.array_equal(keys, before) and keys.dtype == dtype
    subkeys = fam.subkeys(3, 5)
    counts = np.full(5, 32, dtype=np.uint64)
    sub_before, counts_before = subkeys.copy(), counts.copy()
    for key in (0, 1, 2**31, MAX_REAL_KEY):
        path_buckets(subkeys, key, counts)
        path_buckets(subkeys, key, 32)
    assert np.array_equal(subkeys, sub_before)
    assert np.array_equal(counts, counts_before)


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
    got = rng.bucket(64, (100, 3))
    assert got.dtype == np.int64 and np.array_equal(got, want.astype(np.int64))
    assert got.flags.writeable


def test_rng_replayable():
    a = Rng(77, (1, 2))
    b = Rng(77, (1, 2))
    assert a.bits64(16).tolist() == b.bits64(16).tolist()
    assert a.bucket(64) == b.bucket(64)


def test_rng_refuses_negative_seeds_and_indices():
    # SeedSequence would raise a bare ValueError
    for seed, path in ((-1, ()), (0, (-1,)), (3, (2, -5))):
        with pytest.raises(InvalidParameterError, match="non-negative"):
            Rng(seed, path)
    # a float, a str or a bool is refused, not read as another stream
    for seed, path, name in ((1.9, (), "seed"), ("7", (), "seed"),
                             (True, (), "seed"), (0, (2.5,), "substream index"),
                             (0, ("2",), "substream index")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} "):
            Rng(seed, path)
    with pytest.raises(InvalidParameterError, match="^seed "):
        mc_throw_spill(4, 4, 2, 10, 1.5)
    # numpy integers are integers
    assert Rng(np.int64(3), (np.uint8(1),)).bits64(4).tolist() == \
        Rng(3, (1,)).bits64(4).tolist()


def test_hash_family_refuses_negative_and_non_integer_seeds():
    # a bool would hash as seed or epoch 1, and a float fail at the first hash
    for seed, epoch, name in ((True, 0, "seed"), (1.5, 0, "seed"),
                              ("7", 0, "seed"), (0, True, "epoch"),
                              (0, 2.0, "epoch")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} must be an"):
            HashFamily(seed, epoch)
    for seed, epoch, name in ((-1, 0, "seed"), (0, -1, "epoch")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} must be non"):
            HashFamily(seed, epoch)
    # numpy integers are integers, and are held as ints
    fam = HashFamily(np.int64(3), np.uint8(1))
    assert fam == HashFamily(3, 1) and type(fam.seed) is int
    assert fam.bucket_indices(2, 1, 77, 64) == HashFamily(3, 1).bucket_indices(
        2, 1, 77, 64)


def test_hash_family_refuses_non_integer_levels_tables_and_ranges():
    # a float range would hash into [0, floor(n)) and a bool level or range
    # alias level 1 or n = 1; a negative level or table would hash too
    fam, keys = HashFamily(3), np.arange(50, dtype=np.uint32)
    for level, table, n, name in ((True, 0, 8, "level"), (1.0, 0, 8, "level"),
                                  (1, 1.0, 8, "table_index"),
                                  (1, "0", 8, "table_index"),
                                  (1, 0, 2.5, "n"), (1, 0, True, "n")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} must be an"):
            fam.bucket_indices(level, table, keys, n)
    for level, table, name in ((-1, 0, "level"), (1, -1, "table_index")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} must be non"):
            fam.bucket_indices(level, table, keys, 8)
    with pytest.raises(InvalidParameterError, match="at least 1"):
        fam.bucket_indices(1, 0, keys, 0)
    for level, count, name in ((1, 2.0, "count"), (True, 2, "level"),
                               (-1, 2, "level"), (1, -1, "count")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} must be"):
            fam.subkeys(level, count)
    # numpy integers are integers
    assert np.array_equal(fam.bucket_indices(np.int64(1), np.uint8(0), keys,
                                             np.int32(8)),
                          fam.bucket_indices(1, 0, keys, 8))
    assert fam.subkeys(np.int64(2), np.uint8(3)).tolist() == \
        fam.subkeys(2, 3).tolist()


def test_slot_array_refuses_a_non_integer_payload_size():
    for size in (8.0, True, "8"):
        with pytest.raises(InvalidParameterError, match="^payload_size must be an"):
            SlotArray(4, size)
    with pytest.raises(InvalidParameterError, match="non-negative"):
        SlotArray(4, -1)
    assert SlotArray(4, np.int64(3)).payload.shape == (4, 3)


def test_slot_array_shape_is_an_int_or_a_tuple_or_list_of_ints():
    # np.int64(4) + (8,) broadcasts to array([12]): each entry must be an int
    for shape, want in ((np.int64(4), (4,)), ([2, 3], (2, 3)),
                        ((np.uint8(2), 0), (2, 0)), ((), ())):
        arr = SlotArray(shape, 8)
        assert arr.key.shape == want and arr.payload.shape == (*want, 8)
    for bad in ((2, -1), -3, [2.0, 3], (2, "3"), 4.0, True, np.array([2, 3]), None):
        with pytest.raises(InvalidParameterError, match="^shape entry must be"):
            SlotArray(bad, 8)
        with pytest.raises(InvalidParameterError, match="^shape entry must be"):
            SlotArray(6, 8).reshape(bad)
    arr = SlotArray(6, 8).reshape([np.int64(2), 3])
    assert arr.key.shape == (2, 3) and arr.payload.shape == (2, 3, 8)


def test_rng_substreams_differ():
    s0 = Rng(5, (0,)).bits64(8)
    s1 = Rng(5, (1,)).bits64(8)
    assert s0.tolist() != s1.tolist()


def test_rng_bucket_draws():
    rng = Rng(3)
    draws = rng.bucket(32, 5000)
    assert draws.min() >= 0 and draws.max() < 32
    counts = np.bincount(draws, minlength=32)
    assert chi_square_uniform(counts, significance=ALPHA).passed
    with pytest.raises(InvalidParameterError):
        rng.bucket(33)
    assert 0 <= rng.bucket(8) < 8


def test_rng_bucket_scalar_draws_match_one_array_draw():
    # one 64-bit word per bucket either way: four scalar draws give the
    # array draw's values, pinned, and leave the stream where it leaves it
    scalar, array = Rng(5, (0,)), Rng(5, (0,))
    draws = [scalar.bucket(1024) for _ in range(4)]
    assert all(type(d) is int for d in draws)
    assert draws == array.bucket(1024, 4).tolist() == [424, 501, 448, 118]
    assert scalar.bits64() == array.bits64()


def test_rng_matrix_draw_matches_sequential_rows():
    # row-major matrix fills consume the stream like repeated row draws; the
    # bit-identical routing paths depend on this
    a = Rng(9, (4,)).bits64((6, 5))
    b = Rng(9, (4,))
    rows = [b.bits64(5) for _ in range(6)]
    assert a.tolist() == [r.tolist() for r in rows]
