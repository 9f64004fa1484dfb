#!/usr/bin/env python3
"""Time the routing stage sort, the stage kernel, and a level-1 build.

    python3 tools/stage_perm_bench.py [--repeats 15] [--builds 400]

Run from the root of a checkout; the package is imported from its src/.

First table: µs per call of oprim._network_perm (the comparator network) and
oprim._sorted_perm (a row sort of the wire-tagged keys) on rows × m random
keys, the minimum over --repeats, the two timed alternately.  These are the
shapes the stage kernel sorts: pyramid builds sort m = 2c = 8 at up to 8192
rows, and the spill-mc census m = 4 at 65536.  sort_network_perm takes the
sort from m = oprim._SORT_MIN_WIDTH on; the last column is its choice.

Second table: the stage kernel, through prn.route on (n, 4) tables of
n * 5/2 reals at random cells with uniform destinations, n in 64, 1024 and
16384, and through prn.route_census on one spill-mc census block (512
trials of n=256, c=2, 256 tags thrown first-fit, uniform destinations).
Each line is the median of ROUTES = 9 calls: µs per call, µs per stage, and
ns per repartition beside the count of repartitions, (n/2) log2 n per
table.  A route's time includes its one move of keys and 56-byte
payloads after the last stage.

Then a level-1 build of the uniform benchmark's store (n=64, k=3, c=4,
64 input slots, 40 reals, 56-byte payloads): the median µs of --builds
builds with the stage sort as sort_network_perm chooses it, and with the
network at every width, in alternating blocks of 20.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pyramid_oram import oprim, prn  # noqa: E402
from pyramid_oram.core import HashFamily, Rng, SlotArray, rank_within_group  # noqa: E402
from pyramid_oram.ozht import oblivious_build  # noqa: E402
from pyramid_oram.zht import BuildInput  # noqa: E402

WIDTHS = (2, 4, 8, 16)
ROWS = (32, 512, 8192, 65536)
BLOCK = 20


def stage_table(repeats: int) -> None:
    gen = np.random.default_rng(1)
    print(f"µs per call, min of {repeats}: network / sort")
    print(f"{'m':>3s}" + "".join(f"{rows:>20d}" for rows in ROWS) + "   chosen")
    for m in WIDTHS:
        cells = []
        for rows in ROWS:
            keys = gen.integers(0, 1 << 63, size=(rows, m), dtype=np.uint64)
            best = {oprim._network_perm: np.inf, oprim._sorted_perm: np.inf}
            for _ in range(repeats):
                for perm_of in best:
                    t0 = time.perf_counter_ns()
                    perm_of(keys)
                    best[perm_of] = min(best[perm_of],
                                        (time.perf_counter_ns() - t0) / 1e3)
            network, sort = best.values()
            cells.append(f"{network:9.0f} /{sort:8.0f}")
        chosen = "sort" if m >= oprim._SORT_MIN_WIDTH else "network"
        print(f"{m:3d}" + "".join(f"{cell:>20s}" for cell in cells) + f"   {chosen}")


ROUTE_SIZES = (64, 1024, 16384)
ROUTES = 9  # calls timed per line
CENSUS = (512, 256, 2, 256)  # trials, n, c, load of one spill-mc block


def census_block(gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Tags and destinations of one block as mc_prn_stage_spill draws them."""
    trials, n, c, load = CENSUS
    ti = np.repeat(np.arange(trials), load)
    bucket = gen.integers(0, n, trials * load)
    rank = rank_within_group(ti * n + bucket)
    fits = rank < c
    tag = np.zeros((trials, n, c), dtype=bool)
    tag[ti[fits], bucket[fits], rank[fits]] = True
    return tag, gen.integers(0, n, (trials, n, c))


def kernel_table() -> None:
    gen = np.random.default_rng(4)
    rng = Rng(5)
    print(f"stage kernel, median of {ROUTES} calls")
    print(f"{'call':>22s} {'stages':>6s} {'repartitions':>12s} {'µs':>10s}"
          f" {'µs/stage':>9s} {'ns/repart':>9s}")

    def line(name: str, n: int, tables: int, times: list[float]) -> None:
        stages = n.bit_length() - 1
        parts = tables * (n // 2) * stages
        us = statistics.median(times)
        print(f"{name:>22s} {stages:6d} {parts:12d} {us:10.0f} {us / stages:9.1f}"
              f" {us * 1e3 / parts:9.1f}")

    for n in ROUTE_SIZES:
        table = SlotArray((n, 4), 56)
        cells = gen.choice(n * 4, n * 5 // 2, replace=False)
        table.key.reshape(-1)[cells] = gen.choice(1 << 30, cells.size, replace=False)
        times = []
        for _ in range(ROUTES):
            dests = gen.integers(0, n, (n, 4))
            t0 = time.perf_counter_ns()
            prn.route(table, dests, rng)
            times.append((time.perf_counter_ns() - t0) / 1e3)
        line(f"route n={n}", n, 1, times)
    trials, n, _, _ = CENSUS
    times = []
    for _ in range(ROUTES):
        tag, dest = census_block(gen)
        t0 = time.perf_counter_ns()
        prn.route_census(tag, dest, rng)
        times.append((time.perf_counter_ns() - t0) / 1e3)
    line(f"census {trials}x n={n}", n, trials, times)


def level1_builds(builds: int) -> None:
    n, k, c, size, reals, payload = 64, 3, 4, 64, 40, 56
    gen = np.random.default_rng(2)
    rows = np.sort(gen.choice(size, reals, replace=False))
    keys = gen.choice(1 << 20, reals, replace=False).astype(np.uint32)
    elems = BuildInput(size, rows, keys,
                       gen.integers(0, 256, (reals, payload), dtype=np.uint8))
    rng = Rng(3)
    sides = {"as chosen": oprim.sort_network_perm, "network": oprim._network_perm}
    times: dict[str, list[float]] = {side: [] for side in sides}
    epoch = 0
    try:
        while len(times["network"]) < builds:
            for side, perm_of in sides.items():
                prn.sort_network_perm = perm_of
                for _ in range(BLOCK):
                    epoch += 1
                    fam = HashFamily(0, epoch)
                    t0 = time.perf_counter_ns()
                    oblivious_build(elems, n, k, c, fam, rng, level_id=1)
                    times[side].append((time.perf_counter_ns() - t0) / 1e3)
    finally:
        prn.sort_network_perm = oprim.sort_network_perm
    print(f"level-1 build (n={n}, k={k}, c={c}, {size} slots, {reals} reals), "
          f"median µs of {len(times['network'])}:")
    for side, values in times.items():
        print(f"  {side:10s} {statistics.median(values):8.0f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--builds", type=int, default=400)
    args = parser.parse_args(argv)
    stage_table(args.repeats)
    kernel_table()
    level1_builds(args.builds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
