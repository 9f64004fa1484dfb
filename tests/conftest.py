import numpy as np
import pytest

from pyramid_oram.core import Rng, SlotArray, set_debug_checks
from pyramid_oram.zht import BuildInput


@pytest.fixture
def debug_checks():
    """Enable the expensive internal invariant checks for one test."""
    set_debug_checks(True)
    yield
    set_debug_checks(False)


class ToySchedule:
    """Set-based rebuild simulator: merge into the first empty level.

    Tracks which levels hold data with explicit sets instead of bit
    arithmetic, so it is an independent oracle for the schedule closed forms.
    """

    def __init__(self, num_levels: int, loaded: bool = False):
        self.num_levels = num_levels
        self.occupied: set[int] = {num_levels} if loaded else set()

    def merge(self) -> int:
        target = self.num_levels
        for j in range(1, self.num_levels + 1):
            if j not in self.occupied:
                target = j
                break
        for j in range(1, target):
            self.occupied.discard(j)
        self.occupied.add(target)
        return target


def trace_pairs(recorder) -> list[tuple[int, int]]:
    """A recorder's events as (region, index) pairs, in order."""
    regions, indices = recorder.to_arrays()
    return list(zip(regions.tolist(), indices.tolist()))


def make_slots(reals: int, m_total: int, payload_size: int = 8,
               key_offset: int = 0) -> SlotArray:
    """m_total slots, the first `reals` of them real with distinct keys."""
    slots = SlotArray(m_total, payload_size)
    slots.key[:reals] = np.arange(key_offset, key_offset + reals, dtype=np.uint32)
    for row in range(reals):
        slots.payload[row] = (key_offset + row) % 251
    return slots


def make_elems(reals: int, m_total: int, payload_size: int = 8,
               key_offset: int = 0) -> BuildInput:
    """The build input of make_slots(reals, m_total, ...)."""
    return BuildInput.gather([make_slots(reals, m_total, payload_size, key_offset)])


def make_routing_table(n: int, c: int, load: int, seed: int,
                       payload_size: int = 8) -> tuple[SlotArray, np.ndarray]:
    """An (n, c) table with `load` reals at random cells plus uniform dests."""
    table = SlotArray((n, c), payload_size)
    gen = np.random.Generator(np.random.PCG64(seed))
    dests = gen.integers(0, n, size=(n, c)).astype(np.int64)
    cells = [(b, s) for b in range(n) for s in range(c)]
    gen.shuffle(cells)
    for key, (b, s) in enumerate(cells[:load]):
        table.key[b, s] = key
        table.payload[b, s] = key % 251
    return table, dests
