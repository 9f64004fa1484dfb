"""An exception at any call inside a store call refuses the store or leaves it whole.

Each case copies one prepared store and raises a private BaseException (what
a KeyboardInterrupt or a MemoryError does) from a sys.setprofile hook at the
i-th call or C-call event of one access or bulk load: at every event of the
accesses that do not rebuild, and at a fixed stride through an access that
rebuilds level 1, one that makes a full rebuild, and a bulk load.  The store
must then refuse its next call with StoreBrokenError, or hold the items it
held before or after the call and match a dict through its next full
rebuild.  Failing every Nth call follows SQLite's out-of-memory and I/O-error
tests (https://sqlite.org/testing.html).
"""

import copy
import sys

import pytest

from pyramid_oram import PyramidConfig, PyramidOram, StoreBrokenError
from pyramid_oram.core import KEY_SENTINEL
from pyramid_oram.pyramid import rebuild_target

CFG = PyramidConfig(capacity=1024, first_level_size=16, payload_size=8, seed=3)
# the access at t = 1007 rebuilds level 1; at t = 1012 levels 1-6 and the
# last are occupied, 4 keys are in the log, and the next full rebuild is 12
# accesses away; the access at t = 1023 makes it
REBUILD_AT, PREPARED_AT, FULL_AT = 1007, 1012, 1023


class Injected(BaseException):
    """The injected fault; nothing in the store catches it by name."""


def val(key: int, salt: int = 0) -> bytes:
    return bytes([(key + salt + i) % 251 for i in range(CFG.payload_size)])


def _write(oram: PyramidOram, t: int) -> None:
    key = 2 * (t % 200) + 1  # 200 fresh odd keys, then overwrites of them
    oram.write(key, val(key, salt=t))


@pytest.fixture(scope="module")
def prepared() -> dict[int, PyramidOram]:
    """The store of 512 bulk-loaded even keys and odd-key writes, at
    REBUILD_AT, PREPARED_AT and FULL_AT accesses; copy it, never use it."""
    oram = PyramidOram(CFG)
    oram.bulk_load([(key, val(key)) for key in range(0, CFG.capacity, 2)])
    stores = {}
    for t in range(FULL_AT):
        if t in (REBUILD_AT, PREPARED_AT):
            stores[t] = copy.deepcopy(oram)
        _write(oram, t)
    stores[FULL_AT] = oram
    return stores


def _run_injected(call, at: int | None) -> int:
    """Run call() under a hook that counts its call and C-call events and,
    if `at` is given, raises Injected at event `at` (0-based); returns the
    count.  CPython drops a profile hook that raises."""
    seen = 0

    def hook(frame, event, arg):
        nonlocal seen
        # the hook's own removal is not the call's
        if event in ("call", "c_call") and arg is not sys.setprofile:
            if seen == at:
                raise Injected
            seen += 1

    sys.setprofile(hook)
    try:
        call()
    except Injected:
        pass
    finally:
        sys.setprofile(None)
    return seen


def _holds_through_full_rebuild(oram: PyramidOram, model: dict[int, bytes]) -> bool:
    """Overwrites and reads, each checked against model, until the store has
    made its next full rebuild; then it must hold exactly model.  A store
    that raises on the way does not hold."""
    keys = sorted(model) or list(range(0, 128, 2))
    step = 0
    try:
        while True:
            key = keys[step * 37 % len(keys)]
            want = model.get(key)
            if step % 2:
                got = oram.read(key)
            else:
                model[key] = val(key, salt=step + 1)
                got = oram.write(key, model[key])
            if got != want:
                return False
            step += 1
            if oram.t % CFG.capacity == 0:
                return oram.stored_items() == model
    except Exception:
        return False


def _sweep(start: PyramidOram, call, stride: int = 1) -> tuple[int, list[int]]:
    """Inject at every stride-th event of call(oram), counted back from its
    last, on copies of start; returns the events swept and those that left a
    copy wrong."""
    before = start.stored_items()
    after_store = copy.deepcopy(start)
    events = _run_injected(lambda: call(after_store), None)
    after = after_store.stored_items()
    swept, wrong = range(events - 1, -1, -stride), []
    for at in swept:
        oram = copy.deepcopy(start)
        _run_injected(lambda: call(oram), at)
        if oram.broken_by is not None:
            try:
                oram.read(0)
            except StoreBrokenError as refused:
                if refused.__cause__ is oram.broken_by:
                    continue
            wrong.append(at)
            continue
        held = oram.stored_items()
        if (held not in (before, after) or oram.real_count != len(held)
                or not _holds_through_full_rebuild(oram, held)):
            wrong.append(at)
    return len(swept), wrong


def _where(oram: PyramidOram, level: int) -> int:
    """The smallest key that the log (level 0) or a level holds."""
    store = oram.level0 if level == 0 else oram.levels[level].store
    return int(store.key[store.key != KEY_SENTINEL].min())


def _accesses(oram: PyramidOram) -> dict:
    log, level1, level3, last = (_where(oram, j) for j in (0, 1, 3, CFG.num_levels))
    assert {2001, 2003}.isdisjoint(oram.stored_items())
    return {"read_log_hit": lambda o: o.read(log),
            "read_level1_hit": lambda o: o.read(level1),
            "read_last_level_hit": lambda o: o.read(last),
            "read_miss": lambda o: o.read(2001),
            "write_fresh": lambda o: o.write(2003, val(2003, salt=9)),
            "write_overwrite": lambda o: o.write(level3, val(level3, salt=9))}


@pytest.mark.parametrize("kind", ["read_log_hit", "read_level1_hit",
                                  "read_last_level_hit", "read_miss",
                                  "write_fresh", "write_overwrite"])
def test_an_access_that_raises_anywhere_refuses_or_holds(prepared, kind):
    start = prepared[PREPARED_AT]
    swept, wrong = _sweep(start, _accesses(start)[kind])
    assert swept > 30
    assert not wrong, f"{len(wrong)} of {swept} events left the store wrong: {wrong}"


def test_a_rebuilding_access_that_raises_anywhere_refuses_or_holds(prepared):
    def read_and_rebuild_level1(o):
        o.read(2001)

    assert rebuild_target(CFG, REBUILD_AT + 1) == 1
    swept, wrong = _sweep(prepared[REBUILD_AT], read_and_rebuild_level1, stride=7)
    assert swept > 80
    assert not wrong, f"{len(wrong)} of {swept} events left the store wrong: {wrong}"


def test_a_fully_rebuilding_access_that_raises_anywhere_refuses_or_holds(prepared):
    # the full rebuild builds the last level into its second buffer and
    # retires the first
    def read_and_rebuild_all(o):
        o.read(2001)

    assert rebuild_target(CFG, FULL_AT + 1) == CFG.num_levels
    swept, wrong = _sweep(prepared[FULL_AT], read_and_rebuild_all, stride=23)
    assert swept > 80
    assert not wrong, f"{len(wrong)} of {swept} events left the store wrong: {wrong}"


def test_a_bulk_load_that_raises_anywhere_refuses_or_holds():
    items = [(key, val(key)) for key in range(0, CFG.capacity, 2)]

    def bulk_load(o):
        o.bulk_load(items)

    swept, wrong = _sweep(PyramidOram(CFG), bulk_load, stride=23)
    assert swept > 20
    assert not wrong, f"{len(wrong)} of {swept} events left the store wrong: {wrong}"
