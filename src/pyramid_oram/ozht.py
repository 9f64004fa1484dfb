"""Oblivious table construction: throw everything, then route table by table.

Building a level from m_total input slots never branches on contents.  It
reads only the reals (a zht.BuildInput: their positions among the slots,
keys and payloads), and m_total alone, dummies included, sets its shape:

  1. every input slot is thrown along a fresh uniform random path; reals claim
     the first free slot on the way, non-reals make the same shaped accesses.
     Placement is Zht's first-fit kernel, one rank-within-bucket pass per
     table, equal to inserting the reals one at a time in input order.
  2. for each table j in order: route its resident reals to their h_j
     buckets through the repartition network, then (except after the last
     table) sweep all n*c slots once, re-throwing into tables j+1..k-1.  Slots
     the network spilled really move; every other slot fakes identical
     accesses at fresh random buckets.  The spilled reals go in one
     Zht.zigzag_insert batch, first-fit in cell order, which stops at the
     first that falls off; a sweep that spilled nothing inserts nothing.

Both path matrices, the throw's and each sweep's, are drawn and recorded in
fixed blocks of rows (zht.draw_paths, the one place a build records its
throws and inserts), keeping only the rows of the reals and of the spilled
cells, so a build's scratch is a block plus those rows rather than a row
per slot.  The words drawn and the events recorded are
those of one draw of the whole matrix, in the same order; every block of a
sweep is drawn before its first insert, so a sweep that fails leaves the
stream where a retry expects it.

The bucket accesses this makes are counted exactly by build_access_count(),
and their positions are fresh randomness or public hash evaluations, so the
trace shape is a pure function of (m_total, n, k, c).

A slot is real iff its key is not KEY_SENTINEL, so the reals to route are
read off the keys, and the reals to re-throw are those route() reports
spilled: the reals it left outside their destination bucket.  Within a
build the only non-real writes into the level are the dummies that clear
table j's spilled cells after its sweep, and every later claim goes to the
tables after j.

On success every real slot sits in some table j at bucket h_j(key).  A build
fails when an insert falls off the end of its path (throw_overflow) or the
last table's routing spills (final_phase_spill); the returned table set is
then inconsistent and only good for inspection, and the caller decides
whether to retry under fresh randomness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    KEY_SENTINEL,
    HashFamily,
    Rng,
    SlotArray,
    _require,
    debug_checks_enabled,
    is_power_of_two,
)
from .prn import route
from .trace import TraceRecorder
from .zht import BuildInput, Zht, draw_paths

FAILURE_NONE = "none"
FAILURE_THROW = "throw_overflow"
FAILURE_FINAL_SPILL = "final_phase_spill"


@dataclass
class BuildReport:
    """Instrumentation from one build attempt."""

    success: bool
    failure_reason: str
    m_total: int
    real_count: int
    throw_unplaced: int
    arrivals_per_table: list[int] = field(default_factory=list)
    occupancy_per_table: list[int] = field(default_factory=list)
    spills_after_phase: list[int] = field(default_factory=list)
    route_stage_spills: list[list[int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def build_access_count(m_total: int, n: int, k: int, c: int) -> int:
    """Exact bucket-access count of one build attempt.

    k accesses per thrown input slot, n*log2(n) per routed table (two bucket
    accesses per repartition), and one access per remaining table for each of
    the n*c slots in every re-throw sweep.
    """
    _require(is_power_of_two(n) and n >= 2, "n must be a power of two >= 2")
    _require(k >= 1 and c >= 1 and m_total >= 0, "bad build parameters")
    stages = n.bit_length() - 1
    return k * m_total + k * n * stages + n * c * (k * (k - 1) // 2)


def oblivious_build(elems: BuildInput, n: int, k: int, c: int,
                    fam: HashFamily, rng: Rng, *, level_id: int = 0,
                    recorder: TraceRecorder | None = None,
                    store: SlotArray | None = None,
                    ) -> tuple[Zht, BuildReport]:
    """Build a k-table structure holding the reals of `elems`.

    Only the reals are read; the slot count, dummies included, pads the
    access pattern.  Requires real count <= n.  The tables are built over
    `store`, an all-dummy (k, n, c) SlotArray (checked under debug checks),
    or over a fresh one when store is None.
    """
    _require(is_power_of_two(n) and n >= 2, "n must be a power of two >= 2")
    _require(k >= 1, "need at least one table")
    _require(isinstance(elems, BuildInput), "a build takes a BuildInput")
    real = elems.rows.size
    _require(real <= n, "more reals than one table column can drain")
    m_total = elems.size
    z = Zht(n, k, c, fam, level_id=level_id, payload_size=elems.payload_size,
            store=store)

    arrivals: list[int] = []
    spills_after: list[int] = []
    stage_spills: list[list[int]] = []

    def finish(reason: str, unplaced: int) -> tuple[Zht, BuildReport]:
        report = BuildReport(
            success=reason == FAILURE_NONE,
            failure_reason=reason,
            m_total=m_total,
            real_count=real,
            throw_unplaced=unplaced,
            arrivals_per_table=arrivals,
            occupancy_per_table=z.real_counts(),
            spills_after_phase=spills_after,
            route_stage_spills=stage_spills,
        )
        return z, report

    unplaced = z.throw(elems, rng, recorder=recorder)
    if unplaced:
        return finish(FAILURE_THROW, unplaced)

    for tj in range(k):
        tbl = z.tables[tj]
        arrivals.append(tbl.real_count())
        dests = fam.bucket_indices(level_id, tj, tbl.key, n)
        stats = route(tbl, dests, rng, recorder=recorder, region=z.regions[tj])
        stage_spills.append(stats.stage_spills)

        spilled = stats.spilled
        spills_after.append(int(spilled.sum()))
        if debug_checks_enabled():
            placed = (tbl.key != KEY_SENTINEL) & ~spilled
            placed_rows = np.nonzero(placed)[0]
            placed_keys = tbl.key[placed]
            want = fam.bucket_indices(level_id, tj, placed_keys, n)
            assert placed_rows.size == 0 or (want == placed_rows).all(), (
                f"table {tj}: routed slot off its hash bucket"
            )

        if tj == k - 1:
            if spills_after[-1] > 0:
                return finish(FAILURE_FINAL_SPILL, 0)
            break

        # re-throw sweep: one access per later table for all n*c slots
        # every block is drawn before the insert, so a failed sweep leaves
        # the stream where a retry expects it; a sweep with nothing spilled
        # inserts nothing
        cells = np.flatnonzero(spilled.reshape(-1))
        paths = draw_paths(rng, n, n * c, cells, z.regions[tj + 1:], recorder)
        if cells.size and not z.zigzag_insert(
                tbl.key.reshape(-1)[cells],
                tbl.payload.reshape(-1, z.payload_size)[cells], paths,
                first_table=tj + 1):
            return finish(FAILURE_THROW, 1)
        tbl.clear_to_dummy(spilled)

    if debug_checks_enabled():
        assert sum(z.real_counts()) == real, "build lost or duplicated elements"
    return finish(FAILURE_NONE, 0)
