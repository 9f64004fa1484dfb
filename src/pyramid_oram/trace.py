"""Access-trace capture and the obliviousness test surface.

A trace is the adversary's view: the sequence of (region, index) touches at
bucket granularity.  Regions identify a structure (the L0 append log, or one
table of one level); indices are bucket/slot positions inside the region.
Every touch is a whole-bucket read and write-back, so an event is only the
address touched, and TraceRecorder.record is the one call that records them.
write_csv exports a trace as `region,index` lines, one per bucket
read-modify-write.

Obliviousness is tested in two parts.  The *shape* of a trace (its region
column, indices erased) must be exactly equal between a real run and a
simulator fed only public parameters.  The erased indices must in turn be
indistinguishable from uniform, which is checked with Pearson chi-square at a
conservative significance.

The recorder stores events in columnar numpy chunks so that recording a full
rebuild (millions of events) costs a few array appends, not millions of Python
objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InsufficientDataError, InvalidParameterError, Rng

L0_REGION = 0


def table_region(level: int, table_index: int) -> int:
    """Region id of table `table_index` at `level` (L0 is region 0)."""
    if not (0 <= level < 1 << 16 and 0 <= table_index < 1 << 8):
        raise InvalidParameterError("region fields out of range")
    return (1 << 24) | (level << 8) | table_index


def region_level(region: int) -> int:
    return (region >> 8) & 0xFFFF


def region_table(region: int) -> int:
    return region & 0xFF


def is_table_region(region: int) -> bool:
    return bool(region >> 24)


class TraceRecorder:
    """Append-only event log; disabled recorders are no-ops.

    Events live in columnar chunks (region int32, index int64); every event
    is one bucket read-modify-write.  len() marks a point in the stream so
    callers can slice per-operation windows out of a long recording.
    """

    __slots__ = ("enabled", "_chunks", "_count")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def record(self, regions, indices) -> None:
        """Record read-modify-writes of `indices`, row by row.

        regions is one region id, and indices then any shape, taken in C
        order; or a sequence of r region ids, and indices then a (rows, r)
        matrix whose row i is the events (regions[0], M[i,0]), ...,
        (regions[r-1], M[i,r-1]): the "touch each table in order" pattern.
        """
        if not self.enabled:
            return
        regions = np.asarray(regions, dtype=np.int32).reshape(-1)
        idx = np.asarray(indices, dtype=np.int64)
        if regions.size == 1:
            idx = idx.reshape(-1, 1)
        elif idx.ndim != 2 or idx.shape[1] != regions.size:
            raise InvalidParameterError("index matrix does not match region list")
        self._chunks.append((np.tile(regions, len(idx)), idx.reshape(-1)))
        self._count += idx.size

    def clear(self) -> None:
        self._chunks = []
        self._count = 0

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (regions, indices) columns of every event so far."""
        if not self._chunks:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
        regions = np.concatenate([c[0] for c in self._chunks])
        indices = np.concatenate([c[1] for c in self._chunks])
        self._chunks = [(regions, indices)]
        return regions, indices

    def shape_projection(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Region column of events [start, stop): the comparable shape."""
        return self.to_arrays()[0][start:stop]

    def index_histogram(self, region: int, n: int) -> np.ndarray:
        """Counts of indices 0..n-1 recorded for one region."""
        regions, indices = self.to_arrays()
        sel = indices[regions == region]
        if sel.size and (sel.min() < 0 or sel.max() >= n):
            raise InvalidParameterError("recorded index outside [0, n)")
        return np.bincount(sel, minlength=n)

    def regions_present(self) -> list[int]:
        return sorted(int(r) for r in np.unique(self.to_arrays()[0]))

    def write_csv(self, path) -> None:
        """Line-delimited `region,index` export, one line per event."""
        np.savetxt(path, np.column_stack(self.to_arrays()), fmt="%d", delimiter=",")


def shapes_equal(a: TraceRecorder | np.ndarray, b: TraceRecorder | np.ndarray) -> bool:
    pa = a.shape_projection() if isinstance(a, TraceRecorder) else a
    pb = b.shape_projection() if isinstance(b, TraceRecorder) else b
    return pa.shape == pb.shape and bool((pa == pb).all())


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    critical_value: float
    significance: float
    passed: bool


def chi_square_uniform(counts, significance: float = 0.001) -> ChiSquareResult:
    """Pearson chi-square of observed counts against the uniform distribution.

    Requires at least 5 expected observations per cell (total >= 5 * cells);
    below that the test is not meaningful and InsufficientDataError is raised.
    """
    from scipy import stats  # ~1 s and ~70 MB, needed by this function alone
    if not 0.0 < significance < 1.0:
        raise InvalidParameterError("significance must be in (0, 1)")
    obs = np.asarray(counts, dtype=np.float64)
    if obs.ndim != 1 or obs.size < 2:
        raise InvalidParameterError("need a 1-d vector of at least 2 counts")
    total = obs.sum()
    if total < 5 * obs.size:
        raise InsufficientDataError(
            f"{int(total)} samples over {obs.size} cells; need >= {5 * obs.size}"
        )
    statistic, p_value = stats.chisquare(obs)
    dof = obs.size - 1
    critical = float(stats.chi2.ppf(1.0 - significance, dof))
    return ChiSquareResult(
        statistic=float(statistic),
        dof=dof,
        p_value=float(p_value),
        critical_value=critical,
        significance=significance,
        passed=bool(statistic <= critical),
    )


# --- simulators -------------------------------------------------------------
#
# Each simulator runs the real machinery on dummy input, so "the simulator's
# trace" is by construction what a run that holds no data would emit.  The
# obliviousness tests assert real traces have exactly these shapes.


def sim_build(num_slots: int, n: int, k: int, c: int, rng: Rng,
              payload_size: int = 8) -> TraceRecorder:
    """Trace of an oblivious build fed nothing but dummies."""
    from .core import HashFamily, SlotArray
    from .ozht import oblivious_build
    from .zht import BuildInput

    recorder = TraceRecorder()
    elems = BuildInput.gather([SlotArray(num_slots, payload_size)])
    fam = HashFamily(seed=int(rng.bits64()) & 0x7FFFFFFFFFFFFFFF)
    oblivious_build(elems, n, k, c, fam, rng, recorder=recorder)
    return recorder


def sim_search(n: int, k: int, c: int, rng: Rng, payload_size: int = 8) -> TraceRecorder:
    """Trace of one search that looks for nothing (k random buckets)."""
    from .core import HashFamily
    from .zht import Zht

    recorder = TraceRecorder()
    z = Zht(n, k, c, HashFamily(seed=0), level_id=0, payload_size=payload_size)
    z.dummy_search(rng, recorder=recorder)
    return recorder


def sim_throw(m: int, n: int, k: int, c: int, rng: Rng,
              payload_size: int = 8) -> TraceRecorder:
    """Trace of throwing m slots that are all dummies (k random touches each)."""
    from .core import HashFamily, SlotArray
    from .zht import BuildInput, Zht

    recorder = TraceRecorder()
    z = Zht(n, k, c, HashFamily(seed=0), level_id=0, payload_size=payload_size)
    z.throw(BuildInput.gather([SlotArray(m, payload_size)]), rng, recorder=recorder)
    return recorder
