"""The benchmark's workloads: inputs made from a seed, timed runs, output checks.

Every workload is a closed loop in one process and one thread: the caller
issues the next operation only after the previous one returned.  Inputs come
from the benchmark's own seeded generator, never from the package, so a
change to the program cannot change what it is fed.

  uniform    N=2^14, p=64, 56-byte payloads.  Set-up bulk-loads all N keys;
             the run is two full rebuild periods of N accesses each, keys
             uniform over [0, N), half reads.  Real searches reach deep levels.
  zipf       the same, keys Zipf(0.99) over the same N keys.  Hot keys sit in
             the log or the top levels, so deeper probes are mostly dummies;
             the rebuild work is identical to uniform.
  bulk-load  fresh stores at N=2^16 (last level n=65536, k=4, c=4), each
             filled by one bulk_load of N random distinct keys under its own
             seed.  No online work; routing over a large table dominates.
  spill-mc   mc_prn_stage_spill(256, 2, 256, trials=10_000), the acceptance
             criterion-5 shape; the only user of the batched routing census.
             The routine has no set-up of its own, so its set-up figure is a
             warm-up call of the same routine at a smaller trial count.

An operation is an access (uniform, zipf), one bulk_load (bulk-load) or one
Monte Carlo call (spill-mc); an item is an access, a loaded key or a trial.
BENCHMARK.json runs uniform and spill-mc; zipf and bulk-load are run by hand
(perfbench/README.md says why).
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from pyramid_oram import (
    MAX_REAL_KEY,
    PyramidConfig,
    PyramidOram,
    analysis,
    cost_model,
    online_cost,
)

from tracer import Tracer

# independent generator streams under one --seed
_STREAM_LOAD, _STREAM_OPS, _STREAM_BULK = 1, 2, 3

READ_FRACTION = 0.5
# Whole rebuild periods per online run, whatever --seconds says: only a whole
# period has a closed-form bucket total, and two give 2N latency samples.
PERIODS = 2
# Stores built per online run; the median build time is setup_s.
STORE_SETUPS = 3
BULK_MIN_REPS = 2
# spill-mc: warm-up calls (their median is setup_s), their trial count, and
# the fewest measured calls.
SPILL_SETUPS = 5
SPILL_WARMUP_TRIALS = 1024
SPILL_MIN_REPS = 3


@dataclass(frozen=True)
class StoreShape:
    """An online workload: store shape and key distribution."""

    capacity: int
    first_level_size: int
    payload_size: int
    zipf_theta: float | None = None


@dataclass(frozen=True)
class BulkShape:
    capacity: int
    first_level_size: int
    payload_size: int


@dataclass(frozen=True)
class SpillShape:
    n: int
    c: int
    load: int
    trials: int


WORKLOADS = {
    "uniform": StoreShape(1 << 14, 64, 56),
    "zipf": StoreShape(1 << 14, 64, 56, zipf_theta=0.99),
    "bulk-load": BulkShape(1 << 16, 64, 56),
    "spill-mc": SpillShape(256, 2, 256, 10_000),
}


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    op_ns: list[int] = field(default_factory=list)
    items: int = 0
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    traced_wall_s: float = 0.0
    spans: object = None
    expected: frozenset = frozenset()
    p: int | None = None

    def check(self, text: str, ok: bool) -> None:
        self.checks.append((text, bool(ok)))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok in self.checks)


def _gen(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, *stream]))


def _report_exception(what: str) -> None:
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- uniform and zipf -----------------------------------------------------------


def store_config(shape, seed: int) -> PyramidConfig:
    return PyramidConfig(capacity=shape.capacity,
                         first_level_size=shape.first_level_size,
                         payload_size=shape.payload_size, seed=seed)


def load_items(shape, seed: int) -> list[tuple[int, bytes]]:
    """All keys 0..N-1 with seeded payloads."""
    pay = _gen(seed, _STREAM_LOAD).integers(
        0, 256, (shape.capacity, shape.payload_size), dtype=np.uint8)
    return [(key, pay[key].tobytes()) for key in range(shape.capacity)]


def period_ops(shape: StoreShape, seed: int) -> list[tuple[str, int, bytes | None]]:
    """Whole rebuild periods of (op, key, value): N accesses each, keys in [0, N)."""
    n = shape.capacity * PERIODS
    gen = _gen(seed, _STREAM_OPS)
    if shape.zipf_theta is None:
        keys = gen.integers(0, shape.capacity, n)
    else:
        weights = 1.0 / np.arange(1, shape.capacity + 1) ** shape.zipf_theta
        cdf = np.cumsum(weights) / weights.sum()
        ranks = np.minimum(np.searchsorted(cdf, gen.random(n), side="right"),
                           shape.capacity - 1)
        # hot ranks land on random keys
        keys = gen.permutation(shape.capacity)[ranks]
    reads = gen.random(n) < READ_FRACTION
    values = gen.integers(0, 256, (n, shape.payload_size), dtype=np.uint8)
    return [("read", int(k), None) if r else ("write", int(k), v.tobytes())
            for k, r, v in zip(keys, reads, values)]


def build_store(shape: StoreShape, seed: int, items) -> PyramidOram:
    oram = PyramidOram(store_config(shape, seed))
    oram.bulk_load(items)
    return oram


def run_period(oram: PyramidOram, ops, ref: dict[int, bytes], out: Outcome):
    """Issue ops in a closed loop; returns (results, records).

    Each returned value is compared against the dict reference `ref`, which
    is updated as the store is.  After a raise the store is unsafe, so the
    remaining ops count as attempted and failed.
    """
    results, records = [], []
    clock = time.perf_counter_ns
    wrong = 0
    start = clock()
    for i, (op, key, value) in enumerate(ops):
        t0 = clock()
        try:
            got, rec = oram.access_with_record(op, key, value)
        except Exception:
            _report_exception(f"access {i} ({op} {key})")
            out.failed += len(ops) - i
            break
        out.op_ns.append(clock() - t0)
        if got != ref.get(key):
            wrong += 1
        if op == "write":
            ref[key] = value
        results.append(got)
        records.append(rec)
    out.wall_s += (clock() - start) / 1e9
    out.attempted += len(ops)
    out.items += len(ops)
    out.failed += wrong
    out.check("every returned value matches the dict reference", wrong == 0)
    return results, records


def check_period(oram: PyramidOram, records, ref, out: Outcome) -> None:
    cfg = oram.config
    start = records[0].op_index if records else 0
    out.check("AccessRecord.op_index counts up from the period start",
              [r.op_index for r in records] == list(range(start, start + len(records))))
    out.check("every online_buckets == online_cost(cfg, t, loaded=True)",
              all(r.online_buckets == online_cost(cfg, r.op_index, loaded=True)
                  for r in records))
    n = cfg.capacity
    model = cost_model(n, cfg.first_level_size).total_period
    periods = [records[i:i + n] for i in range(0, len(records), n)]
    out.check(f"each period's sum of total_buckets == cost_model total_period "
              f"({model})",
              bool(periods) and all(
                  len(chunk) == n and sum(r.total_buckets for r in chunk) == model
                  for chunk in periods))
    out.check("stored_items() == dict reference", oram.stored_items() == ref)


def run_store(shape: StoreShape, seed: int, traced: bool) -> Outcome:
    """Set up STORE_SETUPS stores (median time is setup_s), run whole periods.

    Traced: the last two stores are identical; one runs the periods untraced,
    the other traced, and both must return identical values and records.
    """
    out = Outcome(p=shape.first_level_size)
    items = load_items(shape, seed)
    ops = period_ops(shape, seed)
    stores = []
    for _ in range(STORE_SETUPS):
        if not traced:
            stores.clear()      # a user holds one store; so does peak RSS
        t0 = time.perf_counter()
        stores.append(build_store(shape, seed, items))
        out.setup_s.append(time.perf_counter() - t0)
    oram = stores[-1]
    ref = dict(items)
    results, records = run_period(oram, ops, ref, out)
    check_period(oram, records, ref, out)
    if traced:
        twin = Outcome()
        twin_ref = dict(items)
        with Tracer() as tracer:
            t0 = time.perf_counter()
            twin_results, twin_records = run_period(stores[-2], ops, twin_ref, twin)
            out.traced_wall_s = time.perf_counter() - t0
        check_period(stores[-2], twin_records, twin_ref, twin)
        out.checks += [(f"traced run: {text}", ok) for text, ok in twin.checks]
        out.check("traced run returns the same values and AccessRecords",
                  twin_results == results and twin_records == records)
        out.spans = tracer.summary()
        out.expected = frozenset({
            "pyramid.access", "zht.search", "zht.dummy_search", "zht.throw",
            "zht.zigzag_insert", "zht.slot_array", "core.bucket_indices",
            "core.rng.bucket", "ozht.build", "prn.route",
            "oprim.sort_network_perm"})
    return out


# -- bulk-load --------------------------------------------------------------------


def bulk_items(shape: BulkShape, seed: int) -> list[tuple[int, bytes]]:
    """N distinct random keys (in draw order) with seeded payloads."""
    gen = _gen(seed, _STREAM_BULK)
    draws = gen.integers(0, MAX_REAL_KEY + 1, 2 * shape.capacity)
    _, first = np.unique(draws, return_index=True)
    keys = draws[np.sort(first)][:shape.capacity]
    pay = gen.integers(0, 256, (shape.capacity, shape.payload_size), dtype=np.uint8)
    return [(int(k), p.tobytes()) for k, p in zip(keys, pay)]


def _bulk_once(shape: BulkShape, seed: int, out: Outcome):
    """Construct and load one fresh store; the items are made untimed.

    Returns (setup seconds, load seconds, stored items, build report); the
    last three are None if the load raised.
    """
    items = bulk_items(shape, seed)
    t0 = time.perf_counter()
    oram = PyramidOram(store_config(shape, seed))
    t1 = time.perf_counter()
    try:
        report = oram.bulk_load(items)
    except Exception:
        _report_exception("bulk_load")
        out.failed += 1
        return t1 - t0, None, None, None
    t2 = time.perf_counter()
    stored = oram.stored_items()
    ok = report.success and stored == dict(items)
    out.failed += not ok
    out.check(f"seed {seed}: stored_items() == loaded items", ok)
    return t1 - t0, t2 - t1, stored, report.to_dict()


def run_bulk(shape: BulkShape, seed: int, seconds: float, traced: bool) -> Outcome:
    """Load fresh stores until `seconds` of loading, at least BULK_MIN_REPS;
    stop at the first load that raises.

    Traced: each store is loaded twice under one seed, untraced and traced,
    and the two must hold the same items and report the same build.
    """
    out = Outcome()
    tracer = Tracer()
    rep = 0
    while rep < BULK_MIN_REPS or out.wall_s < seconds:
        rep_seed = seed * 1000 + rep
        rep += 1
        out.attempted += 1
        setup, load, *plain = _bulk_once(shape, rep_seed, out)
        out.setup_s.append(setup)
        if load is None:
            break
        out.op_ns.append(round(load * 1e9))
        out.wall_s += load
        out.items += shape.capacity
        if traced:
            twin = Outcome()
            with tracer:
                _, twin_load, *traced_result = _bulk_once(shape, rep_seed, twin)
            out.traced_wall_s += twin_load or 0.0
            out.check(f"seed {rep_seed}: traced load gives the same items and "
                      "BuildReport", twin.correct and traced_result == plain)
    if traced:
        out.spans = tracer.summary()
        out.expected = frozenset({
            "pyramid.bulk_load", "zht.throw", "zht.zigzag_insert",
            "core.bucket_indices", "ozht.build", "prn.route",
            "oprim.sort_network_perm"})
    return out


# -- spill-mc -----------------------------------------------------------------------


def _stage_spill(shape: SpillShape, trials: int, seed: int):
    # looked up on the module at call time, so the traced run sees the call
    return analysis.mc_prn_stage_spill(shape.n, shape.c, shape.load,
                                       trials=trials, seed=seed)


def _check_spill(shape: SpillShape, report, seed: int, out: Outcome) -> bool:
    """Input conservation and the criterion-5 domination inequality.

    Live plus overflow is an identity per trial; the two means are float sums
    of integers over `trials`, so they agree to rounding, not bit for bit.
    Each stage's mean spill must be at most a fresh throw's of the same live
    count, within 3 combined standard errors.
    """
    conserved = math.isclose(report.stage_live_mean[0] + report.input_overflow_mean,
                             shape.load, rel_tol=1e-12)
    dominated = True
    for s, (mean, err) in enumerate(zip(report.stage_mean, report.stage_stderr)):
        live = max(2, round(report.stage_live_mean[s]))
        base = analysis.mc_throw_spill(live, shape.n, shape.c,
                                       trials=report.trials, seed=seed + 1 + s)
        dominated &= mean <= base.mean + 3 * math.sqrt(err**2 + base.stderr**2)
    out.check(f"seed {seed}: stage_live_mean[0] + input_overflow_mean == load",
              conserved)
    out.check(f"seed {seed}: every stage's spill <= a fresh throw's (criterion 5)",
              dominated)
    return conserved and dominated


def run_spill(shape: SpillShape, seed: int, seconds: float, traced: bool) -> Outcome:
    """Warm up SPILL_SETUPS times (median is setup_s), then run Monte Carlo
    calls until `seconds` have passed, at least SPILL_MIN_REPS; stop at the
    first raise.

    Traced: each call is repeated traced under the same seed and must give
    the same report.
    """
    out = Outcome()
    for i in range(SPILL_SETUPS):
        t0 = time.perf_counter()
        _stage_spill(shape, SPILL_WARMUP_TRIALS, seed * 1000 + 999 - i)
        out.setup_s.append(time.perf_counter() - t0)
    tracer = Tracer()
    rep = 0
    while rep < SPILL_MIN_REPS or out.wall_s < seconds:
        # room for one baseline seed per stage between consecutive calls
        rep_seed = seed * 1000 + 16 * rep
        rep += 1
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            report = _stage_spill(shape, shape.trials, rep_seed)
        except Exception:
            _report_exception("mc_prn_stage_spill")
            out.failed += 1
            break
        elapsed = time.perf_counter() - t0
        out.op_ns.append(round(elapsed * 1e9))
        out.wall_s += elapsed
        out.items += shape.trials
        out.failed += not _check_spill(shape, report, rep_seed, out)
        if traced:
            with tracer:
                t0 = time.perf_counter()
                twin = _stage_spill(shape, shape.trials, rep_seed)
                out.traced_wall_s += time.perf_counter() - t0
            out.check(f"seed {rep_seed}: traced call gives the same report",
                      twin.to_dict() == report.to_dict())
    if traced:
        out.spans = tracer.summary()
        out.expected = frozenset({
            "analysis.mc_prn_stage_spill", "analysis.mc_throw_spill",
            "prn.route_census", "oprim.sort_network_perm"})
    return out


def run(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    shape = WORKLOADS[name]
    if isinstance(shape, StoreShape):
        return run_store(shape, seed, traced)
    if isinstance(shape, BulkShape):
        return run_bulk(shape, seed, seconds, traced)
    return run_spill(shape, seed, seconds, traced)
