"""Closed-form bounds and the Monte Carlo experiments that check them.

The randomized pieces of the structure admit simple binomial-tail bounds:

  * a fixed bucket receives >= c of m thrown elements with probability at
    most C(m, c) / n^c;
  * the expected count of elements a throw cannot place (its spill) is at
    most C(m, c+1) / n^c;
  * one repartition stage spills no more, in expectation, than a fresh throw
    of the same number of elements, so the per-stage bound above applies
    stage by stage;
  * a k-table build fails only if some bucket overflows in every table,
    giving the union bound n * (C(n, c) / n^c)^k at full load.

Each bound has an exact rational path (Fraction arithmetic) and a log-gamma
float path; the suite requires them to agree to ten significant digits.  The
mc_* functions estimate the corresponding empirical quantities in one
process, a block of trials at a time, each block from its own seeded
substream.  The blocks run on the calling thread and, where the process may
use a second CPU, on one helper thread too (numpy releases the GIL inside
its kernels).  A block's draws depend on its own substream alone, it writes
only its own rows of the per-trial results, and the counts summed across
blocks are integers, so every report is bit-identical whatever the thread
count, and runs reproduce exactly.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .core import (
    HashFamily,
    Rng,
    _require,
    as_int,
    is_power_of_two,
)
from .ozht import build_access_count, oblivious_build
from . import prn
from .prn import route_census, stage_count
from .pyramid import PyramidConfig
from .zht import BuildInput

_THROW_STREAM = 1
_CENSUS_STREAM = 2
_DECAY_STREAM = 3
# trials per throw block and per census block; each block draws from its own
# substream, so these fix the stream layouts of mc_throw_spill and
# mc_prn_stage_spill, whatever the thread count.  The pieces a census block
# draws in keep its layout at any size: its destinations per draw, into the
# narrowest type that holds them, and its trials per first-fit throw.
_CHUNK = 256
_CENSUS_BLOCK = 512
_DEST_PIECE = 8192
_TAG_PIECE = 64

_AUTO_EXACT_LIMIT = 10_000


# -- analytic bounds ---------------------------------------------------------


def _bound_args(m: int, n: int, c: int) -> tuple[int, int, int]:
    """(m, n, c) through as_int; InvalidParameterError unless m >= 0,
    n >= 1 and c >= 1."""
    m, n, c = as_int(m, "m"), as_int(n, "n"), as_int(c, "c")
    _require(m >= 0 and n >= 1 and c >= 1, "bad bound parameters")
    return m, n, c


def bucket_overflow_prob_bound_exact(m: int, n: int, c: int) -> Fraction:
    """C(m, c) / n^c as an exact rational; 0 when fewer than c are thrown.

    An upper bound on the probability that one fixed bucket out of n receives
    c or more of m uniformly thrown elements.  Not clamped: values above 1
    are vacuous but still exact.
    """
    m, n, c = _bound_args(m, n, c)
    if m < c:
        return Fraction(0)
    return Fraction(math.comb(m, c), n**c)


def expected_spill_bound_exact(m: int, n: int, c: int) -> Fraction:
    """C(m, c+1) / n^c exactly: a bound on the mean spill of one throw."""
    m, n, c = _bound_args(m, n, c)
    if m <= c:
        return Fraction(0)
    return Fraction(math.comb(m, c + 1), n**c)


def _log_comb(m: int, j: int) -> float:
    # The lower index here is a bucket size, always small, so the falling
    # factorial as a short log sum keeps ~1e-14 relative accuracy at any m;
    # the three-term log-gamma form loses digits to cancellation as m grows.
    if j <= 64:
        return sum(math.log(m - i) for i in range(j)) - math.lgamma(j + 1)
    return math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)


def _float_bound(exact, m: int, n: int, c: int, j: int, method: str) -> float:
    """exact(m, n, c) = C(m, j) / n^c as a float by `method`; past the float
    range math.inf on every method (vacuous there, but still a bound)."""
    _require(method in ("auto", "exact", "float"), "unknown method")
    m, n, c = _bound_args(m, n, c)
    if method == "auto":
        method = "exact" if m <= _AUTO_EXACT_LIMIT else "float"
    if method == "float" and m < j:
        return 0.0
    try:
        if method == "exact":
            return float(exact(m, n, c))
        return math.exp(_log_comb(m, j) - c * math.log(n))
    except OverflowError:
        return math.inf


def bucket_overflow_prob_bound(m: int, n: int, c: int, method: str = "auto") -> float:
    """Float view of bucket_overflow_prob_bound_exact.

    method "exact" evaluates the rational and converts once; "float" stays in
    log space throughout (no big integers); "auto" picks exact for small m.
    Past the float range it is math.inf.
    """
    return _float_bound(bucket_overflow_prob_bound_exact, m, n, c, c, method)


def expected_spill_bound(m: int, n: int, c: int, method: str = "auto") -> float:
    """Float view of expected_spill_bound_exact; same method switch."""
    return _float_bound(expected_spill_bound_exact, m, n, c, c + 1, method)


def zigzag_failure_union_bound(n: int, k: int, c: int) -> float:
    """Union bound on build failure at full load: n * (C(n, c)/n^c)^k, <= 1."""
    n, k, c = as_int(n, "n"), as_int(k, "k"), as_int(c, "c")
    _require(n >= 1 and k >= 1 and c >= 1, "bad bound parameters")
    per_bucket = bucket_overflow_prob_bound_exact(n, n, c)
    return float(min(Fraction(1), n * per_bucket**k))


@dataclass(frozen=True)
class BoundReport:
    """The bounds above evaluated at one parameter point."""

    m: int
    n: int
    c: int
    k: int
    overflow_prob_bound: float
    expected_spill_bound: float
    failure_union_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def bounds_report(m: int, n: int, c: int, k: int) -> BoundReport:
    m, n, c, k = as_int(m, "m"), as_int(n, "n"), as_int(c, "c"), as_int(k, "k")
    return BoundReport(
        m=m, n=n, c=c, k=k,
        overflow_prob_bound=bucket_overflow_prob_bound(m, n, c),
        expected_spill_bound=expected_spill_bound(m, n, c),
        failure_union_bound=zigzag_failure_union_bound(n, k, c),
    )


# -- Monte Carlo: blocks of trials on the usable CPUs ---------------------------

# the most threads the blocks run on: each thread holds a block's whole
# working set (a 512-trial census block's tracemalloc peak is 3.1 MB on one
# thread with the stage kernel's 16384-row blocks, of spill-mc's 48 MB peak
# RSS, so a third thread would come near its 10% bound; hundreds of MB at
# n = 2^16), and two is the count whose memory has been measured
_MAX_THREADS = 2


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, which os.cpu_count() can overstate."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_callees() -> tuple:
    """The functions of other modules that the blocks call, as looked up now."""
    return Rng.bucket, route_census, prn.sort_network_perm


_IMPORTED_CALLEES = _block_callees()


def _on_usable_cpus(work, blocks: int) -> None:
    """work(block_ids) on the calling thread and on up to _MAX_THREADS - 1
    helpers, one per other usable CPU and at most one thread per block, all
    reading one shared iterator of range(blocks), so each block runs once,
    on whichever thread takes it.  work keeps its own scratch and writes
    only its blocks' rows of the results.  A caller that has replaced a
    callee of the blocks (a tracer's wrapper, say) gets every block on the
    calling thread: the replacement need not be thread-safe.  On an error
    the other threads stop after their current block; a helper's error is
    raised here once every thread has stopped."""
    block_ids = iter(range(blocks))  # next() holds the GIL: no id runs twice
    helpers = min(_usable_cpus(), _MAX_THREADS, blocks) - 1
    if helpers < 1 or _block_callees() != _IMPORTED_CALLEES:
        work(block_ids)
        return
    errors = []

    def helper() -> None:
        try:
            work(block_ids)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
            for _ in block_ids:  # the other threads take no further block
                pass

    threads = [threading.Thread(target=helper, daemon=True)
               for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        work(block_ids)
    except BaseException:
        for _ in block_ids:
            pass
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


# -- Monte Carlo: throw spill -------------------------------------------------


@dataclass(frozen=True)
class SpillStats:
    trials: int
    mean: float
    stderr: float
    max_spill: int

    def to_dict(self) -> dict:
        return asdict(self)


def _throw_loads(draws: np.ndarray, n: int) -> np.ndarray:
    """How many of each trial's draws, a (trials, m) int64 array of buckets
    in [0, n), landed in each bucket: (trials, n) int64, one bincount.  The
    draws are offset in place by trial * n, which spares a temporary."""
    trials = draws.shape[0]
    draws += (np.arange(trials) * n)[:, None]
    return np.bincount(draws.ravel(), minlength=trials * n).reshape(trials, n)


def _first_fit_tags(draws: np.ndarray, n: int, c: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The (trials, n, c) slots that a first-fit throw of each trial's draws
    fills, in out if given.  First-fit fills a bucket's slots in order, so
    slot s is filled iff more than s draws landed in its bucket; the rest
    are dropped."""
    loads = _throw_loads(draws, n)
    tag = np.empty(loads.shape + (c,), dtype=bool) if out is None else out
    for s in range(c):  # a broadcast compare would run inner loops c long
        np.greater(loads, s, out=tag[:, :, s])
    return tag


def mc_throw_spill(m: int, n: int, c: int, trials: int, seed: int) -> SpillStats:
    """Empirical spill of throwing m elements into n buckets of c slots.

    Trials run in blocks of _CHUNK, on the usable CPUs (_on_usable_cpus),
    block b drawing from the substream Rng(seed, (_THROW_STREAM, b)), so
    the estimate depends on the arguments alone.
    """
    m, n, c, trials = (as_int(m, "m"), as_int(n, "n"), as_int(c, "c"),
                       as_int(trials, "trials"))
    _require(is_power_of_two(n), "n must be a power of two")
    _require(m >= 0, "m must be at least 0")
    _require(c >= 1, "c must be at least 1")
    _require(trials >= 2, "need at least two trials")
    spills = np.empty(trials, dtype=np.int64)

    def throw(chunk_ids) -> None:
        for chunk_id in chunk_ids:
            start = chunk_id * _CHUNK
            count = min(_CHUNK, trials - start)
            rng = Rng(seed, (_THROW_STREAM, chunk_id))
            over = _throw_loads(rng.bucket(n, (count, m)), n)
            over -= c
            np.maximum(over, 0, out=over)
            over.sum(axis=1, out=spills[start:start + count])

    _on_usable_cpus(throw, -(-trials // _CHUNK))
    return SpillStats(
        trials=trials,
        mean=float(spills.mean()),
        stderr=float(spills.std(ddof=1) / math.sqrt(trials)),
        max_spill=int(spills.max()),
    )


# -- Monte Carlo: per-stage routing spill --------------------------------------


@dataclass(frozen=True)
class StageSpillReport:
    """Per-stage routing spill next to a paired fresh-throw baseline.

    stage_live_mean[s] is the mean count of still-routed elements entering
    stage s; comparisons against a fresh throw are made at that load.
    """

    n: int
    c: int
    load: int
    trials: int
    stage_mean: tuple[float, ...]
    stage_stderr: tuple[float, ...]
    stage_live_mean: tuple[float, ...]
    throw: SpillStats
    input_overflow_mean: float

    def to_dict(self) -> dict:
        return asdict(self)


def mc_prn_stage_spill(n: int, c: int, load: int, trials: int,
                       seed: int) -> StageSpillReport:
    """Spill per routing stage when `load` tagged elements start at random slots.

    Each trial throws `load` elements into the table (first-fit per bucket;
    the rare input overflow is dropped and counted), draws uniform
    destinations, and routes.  Trials run in census blocks of _CENSUS_BLOCK,
    on the usable CPUs (_on_usable_cpus), block b drawing its throws,
    destinations and tiebreaks in that order from the substream
    Rng(seed, (_CENSUS_STREAM, b)).  The paired mc_throw_spill run at the
    same load is the per-stage comparison baseline.
    """
    n, c, load, trials = (as_int(n, "n"), as_int(c, "c"), as_int(load, "load"),
                          as_int(trials, "trials"))
    _require(is_power_of_two(n) and n >= 2, "n must be a power of two >= 2")
    _require(c >= 1, "c must be at least 1")
    _require(1 <= load <= n * c, "load must fit the table")
    _require(trials >= 2, "need at least two trials")
    blocks = -(-trials // _CENSUS_BLOCK)
    spills = np.empty((trials, stage_count(n)), dtype=np.int64)
    live = np.empty_like(spills)
    overflow = np.empty(blocks, dtype=np.int64)

    def census(block_ids) -> None:
        # this thread's own tags and destinations, reused block to block
        tag = np.empty((_CENSUS_BLOCK, n, c), dtype=bool)
        dest = np.empty(tag.shape, dtype=np.min_scalar_type(n - 1))
        for block_id in block_ids:
            start = block_id * _CENSUS_BLOCK
            count = min(_CENSUS_BLOCK, trials - start)
            rng = Rng(seed, (_CENSUS_STREAM, block_id))
            # the draws of one (count, load) draw, a piece of trials at a time
            for at in range(0, count, _TAG_PIECE):
                piece = min(_TAG_PIECE, count - at)
                _first_fit_tags(rng.bucket(n, (piece, load)), n, c,
                                out=tag[at:at + piece])
            overflow[block_id] = count * load - np.count_nonzero(tag[:count])
            words = dest[:count].reshape(-1)
            for at in range(0, words.size, _DEST_PIECE):
                piece = words[at:at + _DEST_PIECE]
                piece[...] = rng.bucket(n, piece.size)
            rows = slice(start, start + count)
            spills[rows], live[rows] = route_census(tag[:count], dest[:count], rng)

    _on_usable_cpus(census, blocks)
    throw = mc_throw_spill(load, n, c, trials, seed)
    return StageSpillReport(
        n=n, c=c, load=load, trials=trials,
        stage_mean=tuple(float(x) for x in spills.mean(axis=0)),
        stage_stderr=tuple(
            float(x) for x in spills.std(axis=0, ddof=1) / math.sqrt(trials)
        ),
        stage_live_mean=tuple(float(x) for x in live.mean(axis=0)),
        throw=throw,
        input_overflow_mean=int(overflow.sum()) / trials,
    )


# -- Monte Carlo: arrival decay across tables ----------------------------------


@dataclass(frozen=True)
class DecayReport:
    """How many elements reach each table over repeated full-load builds."""

    n: int
    k: int
    c: int
    trials: int
    failures: int
    monotone: bool
    mean_arrivals: tuple[float, ...]
    max_arrivals: tuple[int, ...]
    max_occupancy: tuple[int, ...]
    arrival_bound_table3: float

    def to_dict(self) -> dict:
        return asdict(self)


def decay_check(n: int, c: int, k: int, trials: int, seed: int) -> DecayReport:
    """Build full-load tables repeatedly and record per-table arrivals.

    Requires n >= 1024: the n/(2e) third-table bound quoted in the report is
    asymptotic and misleading at toy sizes.  Each trial uses its own hash
    epoch and substream.
    """
    n, c, k, trials = (as_int(n, "n"), as_int(c, "c"), as_int(k, "k"),
                       as_int(trials, "trials"))
    _require(is_power_of_two(n) and n >= 1024, "decay check needs n >= 1024")
    _require(k >= 1 and c >= 1 and trials >= 1, "bad decay parameters")
    failures = 0
    arrivals = []
    occupancy = []
    elems = BuildInput(n, np.arange(n), np.arange(n, dtype=np.uint32),
                       np.zeros((n, 8), np.uint8))
    for trial in range(trials):
        rng = Rng(seed, (_DECAY_STREAM, trial))
        fam = HashFamily(seed, epoch=trial)
        _, report = oblivious_build(elems, n, k, c, fam, rng)
        if not report.success:
            failures += 1
            continue
        arrivals.append(report.arrivals_per_table)
        occupancy.append(report.occupancy_per_table)
    if arrivals:
        arr = np.array(arrivals)
        occ = np.array(occupancy)
        monotone = bool((np.diff(arr, axis=1) <= 0).all())
        mean_arrivals = tuple(float(x) for x in arr.mean(axis=0))
        max_arrivals = tuple(int(x) for x in arr.max(axis=0))
        max_occupancy = tuple(int(x) for x in occ.max(axis=0))
    else:
        monotone = True
        mean_arrivals = ()
        max_arrivals = ()
        max_occupancy = ()
    return DecayReport(
        n=n, k=k, c=c, trials=trials, failures=failures, monotone=monotone,
        mean_arrivals=mean_arrivals, max_arrivals=max_arrivals,
        max_occupancy=max_occupancy,
        arrival_bound_table3=n / (2 * math.e),
    )


# -- cost model ----------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Steady-state bucket-access accounting over one rebuild period."""

    capacity: int
    first_level_size: int
    num_levels: int
    online_min: int
    online_max: int
    total_period: int
    amortized: float

    def to_dict(self) -> dict:
        return asdict(self)


def cost_model(capacity: int, first_level_size: int,
               k_override: int | None = None,
               c_override: int | None = None) -> CostModel:
    """Exact steady-state costs: online extremes and the amortized per-access total.

    Steady state means the last level is occupied throughout (true from the
    first full rebuild on).  Over one period of N accesses, level j < l is
    occupied for exactly half of them and rebuilt N / (2^j p) times; the last
    level is always occupied and rebuilt once, re-absorbing its own contents.
    """
    config = PyramidConfig(
        capacity=capacity,
        first_level_size=first_level_size,
        k_override=k_override,
        c_override=c_override,
    )
    levels = config.levels
    last = levels[-1]
    cap = config.capacity
    p = config.first_level_size
    online_min = p + last.k
    online_max = p + sum(lp.k for lp in levels)
    online_total = cap * p + (cap // 2) * sum(lp.k for lp in levels[:-1]) + cap * last.k

    rebuild_total = 0
    prefix_slots = p
    for lp in levels[:-1]:
        count = cap // ((1 << lp.index) * p)
        rebuild_total += count * build_access_count(prefix_slots, lp.n, lp.k, lp.c)
        prefix_slots += lp.slot_count
    full_m = prefix_slots + last.slot_count
    rebuild_total += build_access_count(full_m, last.n, last.k, last.c)

    total_period = online_total + rebuild_total
    return CostModel(
        capacity=cap,
        first_level_size=p,
        num_levels=config.num_levels,
        online_min=online_min,
        online_max=online_max,
        total_period=total_period,
        amortized=total_period / cap,
    )
