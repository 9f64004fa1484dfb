"""Command line front end: benchmarks, verification, and statistics.

Subcommands:

  bench   run a synthetic workload, emit per-access CSV and a summary JSON
  verify  run the same store next to a plain dict and compare every result
  zht     Monte Carlo throw-spill statistics for one table shape
  prn     per-routing-stage spill statistics with a paired throw baseline
  bounds  the closed-form bounds at one parameter point
  trace   run a workload with recorders on and dump the access trace as
          `region,index` CSV lines, one per bucket read-modify-write

bench, verify and trace drive their store through one driver, run_steps: it
builds the run's seeded store, bulk-loads the preload and runs the steps
lazily, yielding each step's AccessRecord and time.

All randomness is seeded (flag --seed, falling back to the PYRAMID_ORAM_SEED
environment variable, then 0), and with --no-timing the outputs of bench are
byte-for-byte reproducible.  Summaries go to stdout as JSON.  A run config,
from flags or from --config, is checked field by field before anything is
written.  Exit codes: 0 success, 1 a verification found a divergence, 2 bad
parameters or usage, or a file that cannot be read or written, 3 a runtime
failure (capacity exhausted or a build failed).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .analysis import (
    bounds_report,
    bucket_overflow_prob_bound_exact,
    cost_model,
    expected_spill_bound,
    expected_spill_bound_exact,
    mc_prn_stage_spill,
    mc_throw_spill,
)
from .core import (
    KEY_SENTINEL,
    MAX_REAL_KEY,
    BuildFailedError,
    CapacityExceededError,
    InsufficientDataError,
    InvalidParameterError,
    _require,
    as_int,
)
from .pyramid import PyramidConfig, PyramidOram
from .trace import TraceRecorder

RUN_VERSION = 1
_WORKLOAD_STREAM = 9

_WORKLOADS = ("uniform", "sequential", "zipf", "replay")
# generate_workload builds the zipf CDF from three float arrays with one
# entry per key: about 0.4 GB at this bound
_ZIPF_MAX_KEYS = 1 << 24

# The fields only a run has, each as name: (kind, low, high).  An int or a
# float kind is a number in [low, high] (high None: unbounded) that must be an
# integer, or finite and not a bool or a str; a tuple kind lists the allowed
# values.  The store's fields are checked by PyramidConfig.
_RUN_FIELDS = {
    "ops": (int, 0, None),
    "workload": (_WORKLOADS, None, None),
    "zipf_theta": (float, 0, None),
    "key_space": (int, 1, MAX_REAL_KEY + 1),
    "read_fraction": (float, 0, 1),
    "preload": (float, 0, 1),
}


def _check_field(name: str, value) -> None:
    """value against its _RUN_FIELDS row; InvalidParameterError("$.name: ...")."""
    kind, low, high = _RUN_FIELDS[name]
    if kind is int:
        as_int(value, f"$.{name}:")
    elif kind is float:
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # a str, or an int past the floats
            finite = False
        if not finite:
            raise InvalidParameterError(
                f"$.{name}: must be a finite number, not {value!r}")
    elif value not in kind:
        raise InvalidParameterError(
            f"$.{name}: must be one of {', '.join(kind)}, not {value!r}")
    if low is not None and (value < low or high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidParameterError(f"$.{name}: must be {bounds}, not {value!r}")


def _default_seed() -> int:
    text = os.environ.get("PYRAMID_ORAM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(
            f"PYRAMID_ORAM_SEED must be an integer, got {text!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one bench/verify/trace run."""

    capacity: int
    first_level_size: int
    payload_size: int
    seed: int
    ops: int
    workload: str
    zipf_theta: float
    key_space: int
    read_fraction: float
    preload: float
    replay_file: str | None = None

    def __post_init__(self):
        # the store's rules too, so a bad run fails before anything is written
        for name in _RUN_FIELDS:
            _check_field(name, getattr(self, name))
        replay = self.replay_file  # the replay rule
        if not isinstance(replay, (str, type(None))) or (
                self.workload == "replay" and not replay):
            raise InvalidParameterError(
                "$.replay_file: must be a string or null, and a file name "
                f"for the replay workload, not {replay!r}")
        if self.workload == "zipf" and self.key_space > _ZIPF_MAX_KEYS:
            raise InvalidParameterError(
                f"$.key_space: must be at most {_ZIPF_MAX_KEYS} for the zipf "
                f"workload, not {self.key_space}")
        self.store_config()
        if self.preload_keys > self.capacity:
            raise InvalidParameterError(f"a preload of {self.preload_keys} keys "
                                        f"exceeds capacity {self.capacity}")

    @property
    def preload_keys(self) -> int:
        """The run bulk-loads keys 0 .. preload_keys - 1."""
        return int(self.preload * self.key_space)

    def to_json(self) -> dict:
        return {"version": RUN_VERSION, **asdict(self)}

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        return cls(**_config_fields(cls, data, RUN_VERSION))

    def store_config(self) -> PyramidConfig:
        return PyramidConfig(
            capacity=self.capacity,
            first_level_size=self.first_level_size,
            payload_size=self.payload_size,
            seed=self.seed,
        )


def _config_fields(cls, data, version: int) -> dict:
    """The fields of a versioned config dict, for cls(**fields).

    data must be an object whose "version" is the int `version` (a bool is
    refused: True == 1) and whose other keys are fields of the dataclass
    cls; a field with a default may be left out.  Anything else raises
    InvalidParameterError.  The values themselves are checked by cls.
    """
    _require(isinstance(data, dict), "a config must be a JSON object")
    got = data.get("version")
    _require(type(got) is int and got == version,
             f"unsupported config version {got!r}")
    values = {key: value for key, value in data.items() if key != "version"}
    unknown = sorted(values.keys() - {f.name for f in fields(cls)})
    _require(not unknown, f"unknown config fields {unknown}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in values]
    _require(not missing, f"missing config fields {missing}")
    return values


def make_value(key: int, salt: int, size: int) -> bytes:
    """Deterministic payload bytes for (key, salt); any size."""
    out = bytearray()
    block = 0
    while len(out) < size:
        digest = hashlib.blake2b(
            f"{key}:{salt}:{block}".encode(), digest_size=64
        ).digest()
        out.extend(digest)
        block += 1
    return bytes(out[:size])


def generate_workload(run: RunConfig) -> list[tuple[str, int]]:
    """The (op, key) sequence for a run; a pure function of the run config."""
    if run.workload == "replay":
        return _load_replay(run.replay_file)
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([run.seed, _WORKLOAD_STREAM]))
    )
    n = run.ops
    if run.workload == "sequential":
        keys = np.arange(n, dtype=np.int64) % run.key_space
    elif run.workload == "uniform":
        keys = gen.integers(0, run.key_space, size=n, dtype=np.int64)
    else:
        ranks = np.arange(1, run.key_space + 1, dtype=np.float64)
        weights = ranks ** -run.zipf_theta
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        keys = np.searchsorted(cdf, gen.random(n), side="right").astype(np.int64)
        keys = np.minimum(keys, run.key_space - 1)
    reads = gen.random(n) < run.read_fraction
    return [
        ("read" if reads[i] else "write", int(keys[i])) for i in range(n)
    ]


def _load_replay(path: str) -> list[tuple[str, int]]:
    ops = []
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#"):
                continue
            op = row[0].strip()
            key = row[1].strip() if len(row) == 2 else ""
            if op not in ("read", "write") or not key.isdecimal():
                raise InvalidParameterError(
                    f"{path}:{line_no}: expected 'read,<key>' or 'write,<key>'"
                )
            ops.append((op, int(key)))
    return ops


def run_steps(run: RunConfig, recorder=None, build_recorder=None):
    """Build the run's seeded store, bulk-load its preload, and return
    (store, reference, ops, steps).

    reference is what the store should hold, kept up to date as the steps
    run, and ops the step count.  steps runs the workload lazily (a write's
    value is make_value(key, step index)) and yields (record, wall_ns,
    divergence) per step, wall_ns timing access_with_record alone, and
    divergence describing a result that differs from the reference (None
    when it matches).  A caller that stops at a divergence simply breaks.
    """
    workload = generate_workload(run)
    reference = {key: make_value(key, -1, run.payload_size)
                 for key in range(run.preload_keys)}
    oram = PyramidOram(run.store_config(), recorder, build_recorder)
    oram.bulk_load(reference.items())

    def steps():
        for i, (op, key) in enumerate(workload):
            value = make_value(key, i, run.payload_size) if op == "write" else None
            expected = reference.get(key)
            start = time.perf_counter_ns()
            got, record = oram.access_with_record(op, key, value)
            wall = time.perf_counter_ns() - start
            if value is not None:
                reference[key] = value
            yield record, wall, _divergence("workload", i, op, key, expected, got)

    return oram, reference, len(workload), steps()


def _divergence(phase: str, op_index: int | None, op: str, key: int,
                expected: bytes | None, got: bytes | None) -> dict | None:
    """The record of a result that differs from the expected one, or None
    when they match."""
    if got == expected:
        return None
    return {"phase": phase, "op_index": op_index, "op": op, "key": key,
            "expected": expected.hex() if expected else None,
            "got": got.hex() if got else None}


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _run_from_args(args) -> RunConfig:
    if args.config:
        with open(args.config) as fh:
            try:
                run = RunConfig.from_json(json.load(fh))
            except ValueError as exc:  # torn JSON, bad UTF-8 or a misfit
                raise InvalidParameterError(f"{args.config}: {exc}") from None
    else:
        values = {field.name: getattr(args, field.name) for field in fields(RunConfig)}
        if values["key_space"] is None:
            values["key_space"] = args.capacity
        run = RunConfig(**values)
    if args.dump_config:
        with open(args.dump_config, "w") as fh:
            json.dump(run.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return run


# -- bench ---------------------------------------------------------------------


def cmd_bench(args) -> int:
    run = _run_from_args(args)
    _, _, _, steps = run_steps(run)
    timing = not args.no_timing
    rows = [(rec.op_index, int(rec.found), rec.rebuilt_level, rec.online_buckets,
             rec.total_buckets, wall if timing else 0) for rec, wall, _ in steps]

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op_index", "found", "rebuilt_level",
                             "online_buckets", "total_buckets", "wall_ns"])
            writer.writerows(rows)
    if args.cdf:
        totals = sorted(row[4] for row in rows)
        with open(args.cdf, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["total_buckets", "cum_fraction"])
            for i, total in enumerate(totals):
                writer.writerow([total, f"{(i + 1) / len(totals):.6f}"])

    model = cost_model(run.capacity, run.first_level_size)
    summary = {
        "version": RUN_VERSION,
        "run": run.to_json(),
        "ops": len(rows),
        "found": sum(row[1] for row in rows),
        "rebuilds": sum(row[2] >= 1 for row in rows),
        "online_buckets_total": sum(row[3] for row in rows),
        "total_buckets_total": sum(row[4] for row in rows),
        "online_min_seen": min((row[3] for row in rows), default=0),
        "online_max_seen": max((row[3] for row in rows), default=0),
        "wall_ns_total": sum(row[5] for row in rows),
        "cost_model": model.to_dict(),
    }
    _emit(summary)
    return 0


# -- verify ----------------------------------------------------------------------


def _flip_one_payload_bit(oram: PyramidOram) -> bool:
    """Corrupt the first real slot of the deepest occupied level (or the log).

    A level's slots are (table, bucket, slot) in C order, so its first real
    slot is in the first table that holds one.
    """
    levels = [level.store for level in oram.levels[::-1] if level is not None]
    for store in (*levels, oram.level0):
        slots = np.argwhere(store.key != KEY_SENTINEL)
        if slots.size:
            store.payload[(*slots[0], 0)] ^= 1
            return True
    return False


def cmd_verify(args) -> int:
    run = _run_from_args(args)
    oram, reference, ops, steps = run_steps(run)
    divergence = None
    for _, _, divergence in steps:
        if divergence:
            break

    fault_injected = False
    if divergence is None and args.inject_fault:
        fault_injected = _flip_one_payload_bit(oram)
    if divergence is None:
        for key in sorted(reference):
            divergence = _divergence("sweep", None, "read", key, reference[key],
                                     oram.read(key))
            if divergence:
                break

    summary = {
        "version": RUN_VERSION,
        "ok": divergence is None,
        "ops": ops,
        "checked_keys": len(reference),
        "fault_injected": fault_injected,
        "divergence": divergence,
    }
    _emit(summary)
    return 0 if divergence is None else 1


# -- trace -----------------------------------------------------------------------


def cmd_trace(args) -> int:
    run = _run_from_args(args)
    recorder = TraceRecorder(True)
    build_recorder = TraceRecorder(True)
    _, _, ops, steps = run_steps(run, recorder, build_recorder)
    for _ in steps:
        pass

    if args.out:
        recorder.write_csv(args.out)
    if args.build_out:
        build_recorder.write_csv(args.build_out)
    summary = {
        "version": RUN_VERSION,
        "ops": ops,
        "online_events": len(recorder),
        "build_events": len(build_recorder),
        "online_shape_sha256": hashlib.sha256(
            recorder.shape_projection().tobytes()
        ).hexdigest(),
        "build_shape_sha256": hashlib.sha256(
            build_recorder.shape_projection().tobytes()
        ).hexdigest(),
    }
    _emit(summary)
    return 0


# -- statistics ------------------------------------------------------------------


def cmd_zht(args) -> int:
    stats = mc_throw_spill(args.m, args.n, args.c, args.trials, args.seed)
    bound = expected_spill_bound(args.m, args.n, args.c)
    out = {
        "version": RUN_VERSION,
        "m": args.m, "n": args.n, "c": args.c,
        "stats": stats.to_dict(),
        "expected_spill_bound": bound,
        "within_bound": stats.mean <= bound,
    }
    _emit(out)
    return 0


def cmd_prn(args) -> int:
    report = mc_prn_stage_spill(args.n, args.c, args.load, args.trials, args.seed)
    out = {"version": RUN_VERSION, **report.to_dict()}
    _emit(out)
    return 0


def cmd_bounds(args) -> int:
    report = bounds_report(args.m, args.n, args.c, args.k)
    out = {
        "version": RUN_VERSION,
        **report.to_dict(),
        "overflow_prob_exact": str(
            bucket_overflow_prob_bound_exact(args.m, args.n, args.c)
        ),
        "expected_spill_exact": str(
            expected_spill_bound_exact(args.m, args.n, args.c)
        ),
    }
    _emit(out)
    return 0


# -- wiring ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyramid-oram",
        description="Oblivious key-value store: benchmarks, checks, statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--capacity", type=int, default=4096,
                       help="stored key capacity N (power of two)")
    store.add_argument("--first-level-size", type=int, default=64,
                       help="append log size p (power of two)")
    store.add_argument("--payload-size", type=int, default=56)
    store.add_argument("--seed", type=int, default=_default_seed())

    work = argparse.ArgumentParser(add_help=False)
    work.add_argument("--ops", type=int, default=1024)
    work.add_argument("--workload", choices=_WORKLOADS, default="uniform")
    work.add_argument("--zipf-theta", type=float, default=0.99)
    work.add_argument("--key-space", type=int, default=None,
                      help="distinct keys (default: capacity)")
    work.add_argument("--read-fraction", type=float, default=0.5)
    work.add_argument("--preload", type=float, default=0.0,
                      help="fraction of the key space bulk-loaded up front")
    work.add_argument("--replay-file", default=None,
                      help="CSV of op,key lines for --workload replay")
    work.add_argument("--config", default=None,
                      help="JSON run config (overrides the flags above)")
    work.add_argument("--dump-config", default=None,
                      help="write the effective run config as JSON")

    bench = sub.add_parser("bench", parents=[store, work],
                           help="run a workload and summarize costs")
    bench.add_argument("--csv", default=None, help="per-access CSV path")
    bench.add_argument("--cdf", default=None,
                       help="cumulative cost distribution CSV path")
    bench.add_argument("--no-timing", action="store_true",
                       help="write wall_ns as 0 for reproducible bytes")
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", parents=[store, work],
                            help="compare against an in-memory reference")
    verify.add_argument("--inject-fault", action="store_true",
                        help="flip one stored bit; verification must fail")
    verify.set_defaults(func=cmd_verify)

    trace = sub.add_parser("trace", parents=[store, work],
                           help="record and dump the bucket access trace")
    trace.add_argument("--out", default=None, help="online trace CSV path")
    trace.add_argument("--build-out", default=None, help="rebuild trace CSV path")
    trace.set_defaults(func=cmd_trace)

    zht = sub.add_parser("zht", help="Monte Carlo throw-spill statistics")
    zht.add_argument("--m", type=int, required=True)
    zht.add_argument("--n", type=int, required=True)
    zht.add_argument("--c", type=int, required=True)
    zht.add_argument("--trials", type=int, default=10_000)
    zht.add_argument("--seed", type=int, default=_default_seed())
    zht.set_defaults(func=cmd_zht)

    prn = sub.add_parser("prn", help="per-stage routing spill statistics")
    prn.add_argument("--n", type=int, required=True)
    prn.add_argument("--c", type=int, required=True)
    prn.add_argument("--load", type=int, required=True)
    prn.add_argument("--trials", type=int, default=10_000)
    prn.add_argument("--seed", type=int, default=_default_seed())
    prn.set_defaults(func=cmd_prn)

    bounds = sub.add_parser("bounds", help="closed-form bounds at one point")
    bounds.add_argument("--m", type=int, required=True)
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--c", type=int, required=True)
    bounds.add_argument("--k", type=int, default=4)
    bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    try:
        # building the parser reads PYRAMID_ORAM_SEED, so it is mapped too
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (InvalidParameterError, InsufficientDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BuildFailedError, CapacityExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
