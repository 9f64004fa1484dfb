#!/usr/bin/env python3
"""Time spill-mc, a bulk load, the stage kernel and sort, and a level-1 build.

    python3 tools/stage_perm_bench.py [--repeats 15] [--builds 400]

Run from the root of a checkout; the package is imported from its src/.
Page faults are minor faults of this process (getrusage ru_minflt), and
context switches its voluntary ones (ru_nvcsw), summed over its threads:
a thread that waits for the GIL, or for a lock, makes one.

First, one whole spill-mc call, analysis.mc_prn_stage_spill(256, 2, 256,
10000), after a 1024-trial warm-up call like the benchmark's set-up: its
seconds, page faults and voluntary context switches, then those of a
second call, as the benchmark makes one after another.  Its census blocks
run on up to analysis._MAX_THREADS threads, which hand the GIL to each
other between numpy calls.  It runs first, in a fresh process as the
benchmark's spill-mc run does, because the allocator stops handing out
fresh pages once the process has freed large arrays, which every later
measurement here does.  How many pages the first call faults depends on
what the allocator kept from the warm-up: glibc returns the top of its
heap to the system beyond a threshold that grows with the largest block
freed so far.

Then one bulk load of the uniform benchmark's store (N=2^14, p=64,
56-byte payloads, all N keys into its last level, n=16384, k=4, c=4): its
milliseconds, minor faults and resident-set growth (the rise of getrusage
ru_maxrss over the load).  It runs in a fresh subprocess of its own, since
how many pages a load faults in depends on what the allocator holds.  A
route writes payload rows only into the cells a real reaches or leaves, so
the growth counts the pages the load touches, not all the level reserves.

Then the stage kernel, through prn.route on (n, 4) tables of n * 5/2 reals
at random cells with uniform destinations, n in 64, 1024 and 16384, and
through prn.route_census on one spill-mc census block (512 trials of n=256,
c=2, 256 tags thrown first-fit, uniform destinations).  Each line is the
median of ROUTES = 9 calls: µs per call, µs per stage, ns per repartition
beside the count of repartitions, (n/2) log2 n per table, and the page
faults of the call.  A route's time includes its one move of the keys and
of the 56-byte payload rows that reals reach or leave, after the last stage.

Then µs per call of oprim.sort_network_perm on rows × m random keys, given
the full-shape wire indices the stage kernel passes, with
oprim._SORT_MIN_WIDTH patched high (the comparator network on the keys'
row-major columns at every width timed, all powers of two; any other width
is always sorted) and to 0 (a row sort of the wire-tagged keys at every
width): the minimum over --repeats, the two timed alternately, each call on
fresh keys drawn untimed before it, since a sort that meets the same keys
again runs on predicted branches.  These are the shapes the stage kernel
sorts: it sorts a stage in row blocks of at most prn._BLOCK_WORDS = 65536
words, so pyramid builds sort m = 2c = 8 at up to 8192 rows, and the
spill-mc census m = 4 at 16384.  sort_network_perm takes the sort from
m = oprim._SORT_MIN_WIDTH on; the last column is its choice.

Then a level-1 build of the uniform benchmark's store (n=64, k=3, c=4,
64 input slots, 40 reals, 56-byte payloads): the median µs of --builds
builds with the stage sort as sort_network_perm chooses it, and with the
network at every width, in alternating blocks of 20.  As in
PyramidOram._build_level, each build runs over the previous build's
storage, its reals cleared to dummies by pyramid._retired outside the
timed call.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pyramid_oram import oprim, prn  # noqa: E402
from pyramid_oram.analysis import _first_fit_tags, mc_prn_stage_spill  # noqa: E402
from pyramid_oram.core import HashFamily, Rng, SlotArray  # noqa: E402
from pyramid_oram.ozht import oblivious_build  # noqa: E402
from pyramid_oram.pyramid import _retired  # noqa: E402
from pyramid_oram.zht import BuildInput  # noqa: E402

WIDTHS = (2, 4, 8, 16)
ROWS = (32, 512, 8192, 16384)
BLOCK = 20
# oprim._SORT_MIN_WIDTH that runs the network at every power-of-two width,
# and the sort
NETWORK, SORT = 1 << 30, 0


def stage_table(repeats: int) -> None:
    gen = np.random.default_rng(1)
    default = oprim._SORT_MIN_WIDTH
    print(f"µs per call, min of {repeats}, fresh keys per call: network / sort")
    print(f"{'m':>3s}" + "".join(f"{rows:>20d}" for rows in ROWS) + "   chosen")
    for m in WIDTHS:
        cells = []
        for rows in ROWS:
            best = {NETWORK: np.inf, SORT: np.inf}
            # the full-shape wire indices the stage kernel passes
            wire = np.tile(np.arange(m, dtype=np.uint64), (rows, 1))
            for _ in range(repeats):
                for side in best:
                    oprim._SORT_MIN_WIDTH = side
                    keys = gen.integers(0, 1 << 63, (rows, m), dtype=np.uint64)
                    t0 = time.perf_counter_ns()
                    oprim.sort_network_perm(keys, wire)
                    best[side] = min(best[side],
                                     (time.perf_counter_ns() - t0) / 1e3)
            cells.append(f"{best[NETWORK]:9.0f} /{best[SORT]:8.0f}")
        chosen = "sort" if m >= default else "network"
        print(f"{m:3d}" + "".join(f"{cell:>20s}" for cell in cells) + f"   {chosen}")
    oprim._SORT_MIN_WIDTH = default


ROUTE_SIZES = (64, 1024, 16384)
ROUTES = 9  # calls timed per line
CENSUS = (512, 256, 2, 256)  # trials, n, c, load of one spill-mc block


def census_block(gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Tags and destinations of one block as mc_prn_stage_spill draws them."""
    trials, n, c, load = CENSUS
    tag = _first_fit_tags(gen.integers(0, n, (trials, load)), n, c)
    return tag, gen.integers(0, n, (trials, n, c))


def timed(call) -> tuple[float, int, int]:
    """µs, minor page faults and voluntary context switches of one call."""
    u0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter_ns()
    call()
    us = (time.perf_counter_ns() - t0) / 1e3
    u1 = resource.getrusage(resource.RUSAGE_SELF)
    return us, u1.ru_minflt - u0.ru_minflt, u1.ru_nvcsw - u0.ru_nvcsw


def kernel_table() -> None:
    gen = np.random.default_rng(4)
    rng = Rng(5)
    print(f"stage kernel, median of {ROUTES} calls")
    print(f"{'call':>22s} {'stages':>6s} {'repartitions':>12s} {'µs':>10s}"
          f" {'µs/stage':>9s} {'ns/repart':>9s} {'faults':>7s}")

    def line(name: str, n: int, tables: int,
             runs: list[tuple[float, int, int]]) -> None:
        stages = n.bit_length() - 1
        parts = tables * (n // 2) * stages
        us = statistics.median(t for t, _, _ in runs)
        faults = statistics.median(f for _, f, _ in runs)
        print(f"{name:>22s} {stages:6d} {parts:12d} {us:10.0f} {us / stages:9.1f}"
              f" {us * 1e3 / parts:9.1f} {faults:7.0f}")

    for n in ROUTE_SIZES:
        table = SlotArray((n, 4), 56)
        cells = gen.choice(n * 4, n * 5 // 2, replace=False)
        table.key.reshape(-1)[cells] = gen.choice(1 << 30, cells.size, replace=False)
        runs = []
        for _ in range(ROUTES):
            dests = gen.integers(0, n, (n, 4))
            runs.append(timed(lambda: prn.route(table, dests, rng)))
        line(f"route n={n}", n, 1, runs)
    trials, n, _, _ = CENSUS
    runs = []
    for _ in range(ROUTES):
        tag, dest = census_block(gen)
        runs.append(timed(lambda: prn.route_census(tag, dest, rng)))
    line(f"census {trials}x n={n}", n, trials, runs)


SPILL_MC = (256, 2, 256, 10_000)  # n, c, load, trials of the spill-mc workload


def spill_mc_call() -> None:
    n, c, load, trials = SPILL_MC
    mc_prn_stage_spill(n, c, load, 1024, seed=0)
    us, faults, switches = timed(
        lambda: mc_prn_stage_spill(n, c, load, trials, seed=1))
    again, faults_again, switches_again = timed(
        lambda: mc_prn_stage_spill(n, c, load, trials, seed=2))
    print(f"mc_prn_stage_spill({n}, {c}, {load}, {trials}): "
          f"{us / 1e6:.3f} s, {faults} minor faults, "
          f"{switches} voluntary context switches; "
          f"again {again / 1e6:.3f} s, {faults_again} minor faults, "
          f"{switches_again} voluntary context switches")


# run in a fresh interpreter: argv[1] is the src/ to import from
BULK_LOAD = """
import resource, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from pyramid_oram.pyramid import PyramidConfig, PyramidOram
N, P, SIZE = 1 << 14, 64, 56
pay = np.random.default_rng(6).integers(0, 256, (N, SIZE), dtype=np.uint8)
items = [(key, pay[key].tobytes()) for key in range(N)]
oram = PyramidOram(PyramidConfig(capacity=N, first_level_size=P,
                                 payload_size=SIZE, seed=1))
before = resource.getrusage(resource.RUSAGE_SELF)
t0 = time.perf_counter_ns()
oram.bulk_load(items)
ms = (time.perf_counter_ns() - t0) / 1e6
after = resource.getrusage(resource.RUSAGE_SELF)
if len(oram.stored_items()) != N:
    sys.exit("the bulk load lost items")
print(f"bulk_load(N={N}, p={P}, {SIZE}-byte payloads), fresh process: "
      f"{ms:.0f} ms, {after.ru_minflt - before.ru_minflt} minor faults, "
      f"{(after.ru_maxrss - before.ru_maxrss) / 1024:.1f} MB resident growth")
"""


def bulk_load_line() -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", BULK_LOAD, str(src)],
                          capture_output=True, text=True, timeout=300)
    if proc.returncode:
        raise SystemExit(f"bulk load exited {proc.returncode}:\n{proc.stderr}")
    print(proc.stdout, end="", flush=True)


def level1_builds(builds: int) -> None:
    n, k, c, size, reals, payload = 64, 3, 4, 64, 40, 56
    gen = np.random.default_rng(2)
    rows = np.sort(gen.choice(size, reals, replace=False))
    keys = gen.choice(1 << 20, reals, replace=False).astype(np.uint32)
    elems = BuildInput(size, rows, keys,
                       gen.integers(0, 256, (reals, payload), dtype=np.uint8))
    rng = Rng(3)
    sides = {"as chosen": oprim._SORT_MIN_WIDTH, "network": NETWORK}
    times: dict[str, list[float]] = {side: [] for side in sides}
    epoch, store = 0, SlotArray((k, n, c), payload)
    try:
        while len(times["network"]) < builds:
            for side, threshold in sides.items():
                oprim._SORT_MIN_WIDTH = threshold
                for _ in range(BLOCK):
                    epoch += 1
                    fam = HashFamily(0, epoch)
                    t0 = time.perf_counter_ns()
                    z, _ = oblivious_build(elems, n, k, c, fam, rng, level_id=1,
                                           store=store)
                    times[side].append((time.perf_counter_ns() - t0) / 1e3)
                    store = _retired(z)
    finally:
        oprim._SORT_MIN_WIDTH = sides["as chosen"]
    print(f"level-1 build (n={n}, k={k}, c={c}, {size} slots, {reals} reals), "
          f"median µs of {len(times['network'])}:")
    for side, values in times.items():
        print(f"  {side:10s} {statistics.median(values):8.0f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--builds", type=int, default=400)
    args = parser.parse_args(argv)
    spill_mc_call()
    bulk_load_line()
    kernel_table()
    stage_table(args.repeats)
    level1_builds(args.builds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
