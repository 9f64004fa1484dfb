#!/usr/bin/env python3
"""Time the online layers of an access, each beside its bucket count.

    python3 tools/online_bench.py [--accesses 16320] [--keys 2000] [--repeats 7]

Run from the root of a checkout; the package is imported from its src/.

The store has the uniform benchmark's shape (N=2^14, p=64, 56-byte payloads,
seed 1), driven the way the CLI runs a store (cli.run_steps): a run config
that bulk-loads every key, then makes --accesses uniform reads.  At the
default t = 255p every level is occupied, so each level's probe is timed.
On that fixed store each layer is then timed on its own over --keys calls,
and the minimum over --repeats passes of the mean per call is printed:

  log scan       PyramidOram._scan_level0 of a key absent from the log,
                 p buckets
  lane hash      path_buckets over every occupied level's lanes, one lane
                 per table (sum of k_j); hashing reads no bucket
  search hit     Zht.search of a key resident in level j, its path hashed
                 beforehand, remove=False: k_j buckets
  search miss    the same for a key that is stored nowhere: k_j buckets
  dummy_search   Zht.dummy_search: k_j buckets

The bucket counts are online_cost's terms: p for the log, k_j per level.
Each line prints µs per call, the count and ns per bucket access (per lane
for the hash).  Nothing timed changes the store: searches do not remove,
and the scanned key is absent from the log.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pyramid_oram import PyramidOram  # noqa: E402
from pyramid_oram.cli import RunConfig, run_steps  # noqa: E402
from pyramid_oram.core import Rng, path_buckets  # noqa: E402

CAPACITY, P, PAYLOAD, SEED = 1 << 14, 64, 56, 1


def best_ns(call, args: list, repeats: int) -> float:
    """Minimum over repeats of the mean ns of call(*a) over a in args."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for a in args:
            call(*a)
        best = min(best, (time.perf_counter_ns() - t0) / len(args))
    return best


def make_store(accesses: int) -> PyramidOram:
    run = RunConfig(capacity=CAPACITY, first_level_size=P, payload_size=PAYLOAD,
                    seed=SEED, ops=accesses, workload="uniform", zipf_theta=0.99,
                    key_space=CAPACITY, read_fraction=1.0, preload=1.0)
    oram, _, _, steps = run_steps(run)
    for _ in steps:
        pass
    return oram


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=255 * P)
    parser.add_argument("--keys", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)

    oram = make_store(args.accesses)
    gen = np.random.default_rng(SEED + 1)
    # keys above the capacity were never written: they miss everywhere
    absent = (CAPACITY + gen.permutation(args.keys)).tolist()
    rows = []

    ns = best_ns(oram._scan_level0, [(key,) for key in absent], args.repeats)
    rows.append(("log scan", 0, P, P, ns))
    lanes = oram._lane_subkeys.size
    ns = best_ns(path_buckets, [(oram._lane_subkeys, key, oram._lane_n)
                                for key in absent], args.repeats)
    rows.append(("lane hash", "-", "-", lanes, ns))
    for j, level, _, _ in oram._probes:
        resident = np.array([key for key, _ in level.real_items()])
        hits = gen.choice(resident, args.keys).tolist() if resident.size else []
        for name, keys in (("search hit", hits), ("search miss", absent)):
            if keys:
                calls = [(key, False, None, np.array(level.path(key)))
                         for key in keys]
                rows.append((name, j, level.n, level.k,
                             best_ns(level.search, calls, args.repeats)))
        rng = Rng(SEED, (j,))
        rows.append(("dummy_search", j, level.n, level.k,
                     best_ns(level.dummy_search, [(rng,)] * args.keys,
                             args.repeats)))

    print(f"N={CAPACITY}, p={P}, t={oram.t}, {args.keys} calls per layer, "
          f"min of {args.repeats} passes")
    print(f"{'layer':14s} {'level':>5s} {'n':>6s} {'buckets':>8s} "
          f"{'µs/call':>9s} {'ns/bucket':>10s}")
    for name, j, n, buckets, ns in rows:
        print(f"{name:14s} {j!s:>5s} {n!s:>6s} {buckets:8d} "
              f"{ns / 1e3:9.2f} {ns / buckets:10.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
