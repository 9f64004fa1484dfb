"""Spans and counts at the package's layer boundaries, for the traced run.

A boundary is a public function or method of pyramid_oram, patched where its
caller looks it up (a module global or a class attribute), so the program's
own code is untouched.  Every call through a patched boundary becomes a span:
name, parent span, start and end in ns.  Counts measured at the same boundary
(bucket accesses, keys hashed, sorted rows) accumulate per boundary.

A layer's self time is its spans' duration minus the time its child spans
cover.  A boundary that cannot be found is left unpatched; one that a workload
is expected to call but that saw no call is reported absent, never as 0, so a
refactor that moves a boundary cannot make a layer look free.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pyramid_oram import build_access_count
from pyramid_oram.oprim import comparator_schedule

ABSENT = "absent"


def _log2(n: int) -> int:
    return n.bit_length() - 1


def _count_access(counts, args, kwargs, out, dur_ns):
    oram, rec = args[0], out[1]
    counts["pyramid.online_buckets"] += rec.online_buckets
    counts["pyramid.total_buckets"] += rec.total_buckets
    if rec.rebuilt_level >= 0:
        counts["pyramid.rebuilds"] += 1
        counts["ozht.build.attempts"] += oram.last_rebuild.attempts


def _count_bulk_load(counts, args, kwargs, out, dur_ns):
    if out is not None:
        counts["ozht.build.attempts"] += args[0].last_rebuild.attempts


def _count_search(counts, args, kwargs, out, dur_ns):
    counts["zht.search.buckets"] += args[0].k
    counts["zht.search.hits"] += out is not None


def _count_dummy_search(counts, args, kwargs, out, dur_ns):
    counts["zht.dummy_search.buckets"] += args[0].k


def _count_throw(counts, args, kwargs, out, dur_ns):
    counts["zht.throw.slots"] += args[1].size


def _count_zigzag_insert(counts, args, kwargs, out, dur_ns):
    counts["zht.zigzag_insert.placed"] += bool(out)


def _count_bucket_indices(counts, args, kwargs, out, dur_ns):
    keys = kwargs["keys"] if "keys" in kwargs else args[3]
    counts["core.bucket_indices.keys"] += int(np.size(keys))


def _count_build(counts, args, kwargs, out, dur_ns):
    elems, n, k, c = args[:4]
    report = out[1]
    counts["ozht.build.buckets"] += build_access_count(elems.size, n, k, c)
    counts["ozht.build.failures"] += not report.success
    routed = k if report.success else len(report.route_stage_spills)
    counts["ozht.build.closed_repartitions"] += routed * (n // 2) * _log2(n)
    counts[f"ozht.build.level{kwargs.get('level_id', 0)}.ns"] += dur_ns


def _count_route(counts, args, kwargs, out, dur_ns):
    counts["prn.route.repartitions"] += out.repartitions
    counts["prn.route.spilled"] += out.total_spilled


def _count_route_census(counts, args, kwargs, out, dur_ns):
    trials, n, _ = args[0].shape
    counts["prn.route_census.rows"] += trials * (n // 2) * _log2(n)


def _count_sort_network_perm(counts, args, kwargs, out, dur_ns):
    rows, m = args[0].shape
    counts["oprim.sort_network_perm.rows"] += rows
    counts["oprim.sort_network_perm.comparator_rows"] += (
        rows * len(comparator_schedule(m))
    )


def _count_stage_spill(counts, args, kwargs, out, dur_ns):
    n = args[0]
    trials = kwargs["trials"] if "trials" in kwargs else args[3]
    counts["analysis.mc_prn_stage_spill.closed_rows"] += (
        trials * (n // 2) * _log2(n)
    )


@dataclass(frozen=True)
class Boundary:
    """One patched call site: metric prefix, lookup module and attribute path."""

    name: str
    module: str
    attr: str
    count: Callable | None = None


# Patched where the caller looks the name up: PyramidOram._build_level calls
# pyramid.oblivious_build, oblivious_build calls ozht.route, the routing stage
# calls prn.sort_network_perm, mc_prn_stage_spill calls analysis.route_census
# and analysis.mc_throw_spill.  Methods are patched on their class.
BOUNDARIES = (
    Boundary("pyramid.access", "pyramid_oram.pyramid",
             "PyramidOram.access_with_record", _count_access),
    Boundary("pyramid.bulk_load", "pyramid_oram.pyramid",
             "PyramidOram.bulk_load", _count_bulk_load),
    Boundary("zht.search", "pyramid_oram.zht", "Zht.search", _count_search),
    Boundary("zht.dummy_search", "pyramid_oram.zht", "Zht.dummy_search",
             _count_dummy_search),
    Boundary("zht.throw", "pyramid_oram.zht", "Zht.throw", _count_throw),
    Boundary("zht.zigzag_insert", "pyramid_oram.zht", "Zht.zigzag_insert",
             _count_zigzag_insert),
    Boundary("zht.slot_array", "pyramid_oram.zht", "Zht.slot_array"),
    Boundary("core.bucket_indices", "pyramid_oram.core",
             "HashFamily.bucket_indices", _count_bucket_indices),
    Boundary("core.rng.bucket", "pyramid_oram.core", "Rng.bucket"),
    Boundary("ozht.build", "pyramid_oram.pyramid", "oblivious_build",
             _count_build),
    Boundary("prn.route", "pyramid_oram.ozht", "route", _count_route),
    Boundary("prn.route_census", "pyramid_oram.analysis", "route_census",
             _count_route_census),
    Boundary("oprim.sort_network_perm", "pyramid_oram.prn",
             "sort_network_perm", _count_sort_network_perm),
    Boundary("analysis.mc_prn_stage_spill", "pyramid_oram.analysis",
             "mc_prn_stage_spill", _count_stage_spill),
    Boundary("analysis.mc_throw_spill", "pyramid_oram.analysis",
             "mc_throw_spill"),
)


class Tracer:
    """Context manager: patch every boundary on entry, restore on exit.

    Spans are kept in memory as parallel integer columns, one row per call,
    with the parent's row index (-1 for a span with no traced caller).
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.names = [b.name for b in self.boundaries]
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Tracer":
        for name_id, boundary in enumerate(self.boundaries):
            owner, attr = _resolve(boundary.module, boundary.attr)
            if owner is None:
                self.missing.add(boundary.name)
                continue
            original = getattr(owner, attr)
            own = attr in vars(owner)
            setattr(owner, attr, self._wrap(name_id, original, boundary.count))
            self._restore.append((owner, attr, original, own))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def _wrap(self, name_id: int, fn, count):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            row = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(row)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[row] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out, ends[row] - starts[row])
            return out

        return traced

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


def _resolve(module: str, attr_path: str):
    """(owner, attribute) for a dotted path, or (None, None) if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


class SpanSummary:
    """Per-boundary calls, total and self time, derived from the span table."""

    def __init__(self, tracer: Tracer):
        # copies: a view would pin the arrays and block further spans
        names = np.array(tracer.name, dtype=np.int64)
        parent = np.array(tracer.parent, dtype=np.int64)
        dur = (np.frombuffer(tracer.end, dtype=np.int64)
               - np.frombuffer(tracer.start, dtype=np.int64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=names.size)
        width = len(tracer.names)
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self._calls = np.bincount(names, minlength=width)
        self._ns = np.bincount(names, weights=dur, minlength=width)
        self._self_ns = np.bincount(names, weights=dur - child, minlength=width)
        # top-most traced ancestor of every span, to charge nested work to
        # the call that caused it
        root = np.arange(names.size)
        while names.size:
            up = parent[root]
            if (up < 0).all():
                break
            root = np.where(up >= 0, up, root)
        self._names, self._root, self._dur = names, root, dur
        self.counts = dict(tracer.counts)
        self.missing = set(tracer.missing)

    def calls(self, name: str) -> int:
        return int(self._calls[self._ids[name]])

    def seconds(self, name: str) -> float:
        return float(self._ns[self._ids[name]]) / 1e9

    def self_seconds(self, name: str) -> float:
        return float(self._self_ns[self._ids[name]]) / 1e9

    def nested_seconds(self, name: str, under: str) -> float:
        """Time in `name` spans whose top-most traced caller is an `under` span."""
        sel = ((self._names == self._ids[name])
               & (self._names[self._root] == self._ids[under]))
        return float(self._dur[sel].sum()) / 1e9

    def count(self, key: str) -> int:
        return int(self.counts.get(key, 0))


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(b):
    return (f"{b}.calls", "count", b, lambda s: s.calls(b))


def _secs(b):
    return (f"{b}.s", "s", b, lambda s: s.seconds(b))


def _self(b):
    return (f"{b}.self_s", "s", b, lambda s: s.self_seconds(b))


def _total(b, field):
    return (f"{b}.{field}", "count", b, lambda s: s.count(f"{b}.{field}"))


def _per(b, field, per):
    return (f"{b}.ns_per_{per}", "ns", b,
            lambda s: _ratio(s.seconds(b) * 1e9, s.count(f"{b}.{field}")))


def _online_s(s):
    return (s.seconds("pyramid.access")
            - s.nested_seconds("ozht.build", "pyramid.access"))


def _build_level(j):
    return (f"ozht.build.level{j}.s", "s", "ozht.build",
            lambda s: s.count(f"ozht.build.level{j}.ns") / 1e9)


# Levels a store of the benchmark's shapes can rebuild into: 9 at N=2^14,
# p=64; 11 at N=2^16, p=64.
MAX_LEVEL = 11

# (metric, unit, boundary it is measured at, value from a SpanSummary)
LAYER_METRICS = (
    _calls("pyramid.access"),
    ("pyramid.online_s", "s", "pyramid.access", _online_s),
    ("pyramid.self_s", "s", "pyramid.access",
     lambda s: s.self_seconds("pyramid.access")),
    ("pyramid.online_buckets", "count", "pyramid.access",
     lambda s: s.count("pyramid.online_buckets")),
    ("pyramid.online_ns_per_bucket", "ns", "pyramid.access",
     lambda s: _ratio(_online_s(s) * 1e9, s.count("pyramid.online_buckets"))),
    ("pyramid.total_buckets", "count", "pyramid.access",
     lambda s: s.count("pyramid.total_buckets")),
    ("pyramid.rebuilds", "count", "pyramid.access",
     lambda s: s.count("pyramid.rebuilds")),
    _calls("zht.search"), _secs("zht.search"), _self("zht.search"),
    ("zht.search.hit_ratio", "ratio", "zht.search",
     lambda s: _ratio(s.count("zht.search.hits"), s.calls("zht.search"))),
    _per("zht.search", "buckets", "bucket"),
    _calls("zht.dummy_search"), _secs("zht.dummy_search"),
    _per("zht.dummy_search", "buckets", "bucket"),
    _calls("zht.throw"), _secs("zht.throw"), _total("zht.throw", "slots"),
    _calls("zht.zigzag_insert"), _secs("zht.zigzag_insert"),
    ("zht.zigzag_insert.placed_ratio", "ratio", "zht.zigzag_insert",
     lambda s: _ratio(s.count("zht.zigzag_insert.placed"),
                      s.calls("zht.zigzag_insert"))),
    _secs("zht.slot_array"),
    _calls("core.bucket_indices"), _total("core.bucket_indices", "keys"),
    _secs("core.bucket_indices"),
    _calls("core.rng.bucket"), _secs("core.rng.bucket"),
    _calls("ozht.build"), _secs("ozht.build"), _self("ozht.build"),
    _total("ozht.build", "attempts"), _total("ozht.build", "failures"),
    _total("ozht.build", "buckets"), _per("ozht.build", "buckets", "bucket"),
    *(_build_level(j) for j in range(1, MAX_LEVEL + 1)),
    _calls("prn.route"), _secs("prn.route"), _self("prn.route"),
    _total("prn.route", "repartitions"), _total("prn.route", "spilled"),
    _per("prn.route", "repartitions", "repartition"),
    _calls("prn.route_census"), _secs("prn.route_census"),
    _total("prn.route_census", "rows"),
    _calls("oprim.sort_network_perm"), _total("oprim.sort_network_perm", "rows"),
    _total("oprim.sort_network_perm", "comparator_rows"),
    _secs("oprim.sort_network_perm"),
    _per("oprim.sort_network_perm", "comparator_rows", "comparator_row"),
    _secs("analysis.mc_prn_stage_spill"), _secs("analysis.mc_throw_spill"),
)


def absent_boundaries(summary: SpanSummary, expected) -> set[str]:
    """Expected boundaries that were not found or saw no call."""
    return {b for b in expected
            if b in summary.missing or summary.calls(b) == 0}


def layer_metrics(summary: SpanSummary, absent) -> dict[str, dict]:
    """Every per-layer metric; those measured at an absent boundary say so."""
    out = {}
    for name, unit, boundary, value in LAYER_METRICS:
        if boundary in absent:
            out[name] = {"value": None, "unit": unit, "status": ABSENT}
        else:
            out[name] = {"value": value(summary), "unit": unit}
    return out


# -- closed-form cross-checks ----------------------------------------------------
#
# Each compares a count summed at the boundaries against a closed form of the
# paper's cost accounting, so a wrapper that misses calls fails a check.


def _probe_check(s, p):
    probed = s.count("zht.search.buckets") + s.count("zht.dummy_search.buckets")
    return probed, s.count("pyramid.online_buckets") - p * s.calls("pyramid.access")


def _build_bucket_check(s, p):
    rebuild = s.count("pyramid.total_buckets") - s.count("pyramid.online_buckets")
    return s.count("ozht.build.buckets"), rebuild


def _census_rows(s):
    return s.count("prn.route_census.rows") if s.calls("prn.route_census") else 0


# (description, boundary whose presence makes it apply, boundaries read, sides)
CHECKS = (
    ("sum k over search+dummy_search == sum online_buckets - p*accesses",
     "pyramid.access", ("pyramid.access", "zht.search", "zht.dummy_search"),
     _probe_check),
    ("ozht.build.buckets (build_access_count) == sum total - online buckets",
     "pyramid.access", ("pyramid.access", "ozht.build"), _build_bucket_check),
    ("prn.route.repartitions == sum (n/2) log2 n over routed tables",
     "ozht.build", ("ozht.build", "prn.route"),
     lambda s, p: (s.count("prn.route.repartitions"),
                   s.count("ozht.build.closed_repartitions"))),
    ("ozht.build.attempts (store's RebuildInfo) == ozht.build.calls",
     "ozht.build", ("ozht.build",),
     lambda s, p: (s.count("ozht.build.attempts"), s.calls("ozht.build"))),
    ("prn.route_census.rows == sum trials (n/2) log2 n over MC calls",
     "analysis.mc_prn_stage_spill",
     ("analysis.mc_prn_stage_spill", "prn.route_census"),
     lambda s, p: (s.count("prn.route_census.rows"),
                   s.count("analysis.mc_prn_stage_spill.closed_rows"))),
    ("oprim.sort_network_perm.rows == route repartitions + census rows",
     "oprim.sort_network_perm",
     ("oprim.sort_network_perm", "prn.route", "prn.route_census"),
     lambda s, p: (s.count("oprim.sort_network_perm.rows"),
                   s.count("prn.route.repartitions") + _census_rows(s))),
)


def closed_form_checks(summary: SpanSummary, expected, absent,
                       p: int | None) -> list[tuple[str, str]]:
    """(description, "ok" | "skipped: ... absent" | "FAIL: a != b") per check."""
    results = []
    for text, trigger, reads, sides in CHECKS:
        if trigger not in expected:
            continue
        gone = sorted(set(reads) & set(absent))
        if gone:
            results.append((text, f"skipped: {', '.join(gone)} absent"))
            continue
        lhs, rhs = sides(summary, p)
        results.append((text, "ok" if lhs == rhs else f"FAIL: {lhs} != {rhs}"))
    return results
