"""Analytic bounds, their two evaluation paths, and the Monte Carlo checks."""

import math
import threading
import time
from fractions import Fraction

import pytest
from scipy import stats

from pyramid_oram import analysis
from pyramid_oram.analysis import (
    BoundReport,
    SpillStats,
    bounds_report,
    bucket_overflow_prob_bound,
    bucket_overflow_prob_bound_exact,
    cost_model,
    decay_check,
    expected_spill_bound,
    expected_spill_bound_exact,
    mc_prn_stage_spill,
    mc_throw_spill,
    zigzag_failure_union_bound,
)
from pyramid_oram.core import InvalidParameterError

# frozen oracle values, cross-checked below against scipy's binomial pmf
TRUE_SPILL_1024_4 = 4.422530841420935      # m = n = 1024, c = 4
TRUE_SPILL_512_256_2 = 138.31230634212613  # m = 512, n = 256, c = 2


def true_expected_spill(m: int, n: int, c: int) -> float:
    """Independent oracle: n * E[(X - c)+] for X ~ Binomial(m, 1/n)."""
    x = stats.binom(m, 1.0 / n)
    return float(n * sum((j - c) * x.pmf(j) for j in range(c + 1, m + 1)))


def test_frozen_oracles_match_scipy():
    assert math.isclose(true_expected_spill(1024, 1024, 4), TRUE_SPILL_1024_4,
                        rel_tol=1e-12)
    assert math.isclose(true_expected_spill(512, 256, 2), TRUE_SPILL_512_256_2,
                        rel_tol=1e-12)


def test_overflow_bound_frozen_values():
    assert bucket_overflow_prob_bound_exact(256, 256, 2) == Fraction(255, 512)
    assert bucket_overflow_prob_bound(256, 256, 2) == 0.498046875
    assert bucket_overflow_prob_bound_exact(3, 4, 4) == 0
    assert bucket_overflow_prob_bound(3, 4, 4) == 0.0


def test_spill_bound_frozen_values():
    assert expected_spill_bound(1024, 1024, 4) == 8.450284433551133
    assert expected_spill_bound(2048, 2048, 4) == 16.983475649380125
    assert expected_spill_bound(512, 256, 2) == 339.3359375
    assert expected_spill_bound_exact(4, 8, 4) == 0
    assert expected_spill_bound_exact(512, 256, 2) == Fraction(
        math.comb(512, 3), 256**2
    )


def test_bounds_dominate_true_means():
    assert expected_spill_bound(1024, 1024, 4) >= TRUE_SPILL_1024_4
    assert expected_spill_bound(512, 256, 2) >= TRUE_SPILL_512_256_2


def test_exact_and_float_paths_agree_to_ten_digits():
    points = [
        (256, 256, 2), (1024, 1024, 4), (2048, 2048, 4), (512, 256, 2),
        (100000, 4096, 4), (50, 8, 3), (7, 16, 5),
    ]
    for m, n, c in points:
        a = bucket_overflow_prob_bound(m, n, c, method="exact")
        b = bucket_overflow_prob_bound(m, n, c, method="float")
        assert a == pytest.approx(b, rel=1e-10), (m, n, c)
        a = expected_spill_bound(m, n, c, method="exact")
        b = expected_spill_bound(m, n, c, method="float")
        assert a == pytest.approx(b, rel=1e-10), (m, n, c)


def test_bounds_past_the_float_range_are_inf():
    # C(m, c) / n^c above the float range: every method overflows to inf
    for m, n, c in [(10000, 2, 200), (10**9, 2, 64)]:
        for method in ("auto", "exact", "float"):
            assert bucket_overflow_prob_bound(m, n, c, method=method) == math.inf
            assert expected_spill_bound(m, n, c, method=method) == math.inf


def test_method_switch_validated():
    with pytest.raises(InvalidParameterError):
        bucket_overflow_prob_bound(8, 8, 2, method="fastest")
    with pytest.raises(InvalidParameterError):
        expected_spill_bound(8, 8, 2, method="")
    with pytest.raises(InvalidParameterError):
        bucket_overflow_prob_bound_exact(-1, 8, 2)


def test_bounds_refuse_non_integers():
    # each bad argument is named; a float is refused, not read as a count
    for call, name in (
            (lambda: zigzag_failure_union_bound(1024, 2.5, 4), "k"),
            (lambda: zigzag_failure_union_bound(1024.0, 4, 4), "n"),
            (lambda: expected_spill_bound(64.5, 64, 2, method="float"), "m"),
            (lambda: expected_spill_bound(64, 64, 2.0, method="exact"), "c"),
            (lambda: bucket_overflow_prob_bound(64, "64", 2), "n"),
            (lambda: bucket_overflow_prob_bound_exact(64, 64, True), "c"),
            (lambda: expected_spill_bound_exact(64.0, 64, 2), "m"),
            (lambda: bounds_report(8.0, 8, 2, 2), "m"),
            (lambda: bounds_report(8, 8, 2, 2.0), "k"),
            (lambda: decay_check(1024.0, 4, 3, trials=1, seed=0), "n"),
            (lambda: decay_check(1024, 4, 3, trials=1.0, seed=0), "trials"),
            (lambda: decay_check(1024, 4, 3, trials=1, seed=0.5), "seed")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} "):
            call()
    # the float path checks its arguments as the exact one does
    for method in ("auto", "exact", "float"):
        with pytest.raises(InvalidParameterError, match="bad bound parameters"):
            expected_spill_bound(-1, 64, 2, method=method)
        with pytest.raises(InvalidParameterError, match="bad bound parameters"):
            bucket_overflow_prob_bound(64, 0, 2, method=method)


def test_union_bound_frozen():
    assert zigzag_failure_union_bound(2048, 4, 4) == 0.0061008829855669165
    assert zigzag_failure_union_bound(4, 1, 1) == 1.0  # clamped


def test_bounds_report_composes():
    report = bounds_report(1024, 1024, 4, 4)
    assert isinstance(report, BoundReport)
    assert report.expected_spill_bound == expected_spill_bound(1024, 1024, 4)
    assert report.failure_union_bound == zigzag_failure_union_bound(1024, 4, 4)
    d = report.to_dict()
    assert d["m"] == 1024 and "overflow_prob_bound" in d


def test_mc_throw_spill_matches_oracle():
    result = mc_throw_spill(1024, 1024, 4, trials=2000, seed=42)
    assert result.trials == 2000
    assert abs(result.mean - TRUE_SPILL_1024_4) <= 4 * result.stderr
    assert result.mean <= expected_spill_bound(1024, 1024, 4)
    assert result.max_spill >= result.mean


def test_mc_throw_spill_deterministic():
    a = mc_throw_spill(512, 256, 2, trials=600, seed=7)
    b = mc_throw_spill(512, 256, 2, trials=600, seed=7)
    assert a == b
    assert abs(a.mean - TRUE_SPILL_512_256_2) <= 4 * a.stderr


def test_mc_throw_spill_frozen():
    # 600 trials are three chunks (256 + 256 + 88), each from its own
    # substream; values taken from the estimator that could also run the
    # chunks in a process pool
    assert mc_throw_spill(512, 256, 2, trials=600, seed=7) == SpillStats(
        trials=600, mean=138.30833333333334, stderr=0.2885399621812408,
        max_spill=162)
    # one partial chunk: the first 200 draws of chunk 0
    assert mc_throw_spill(512, 256, 2, trials=200, seed=7) == SpillStats(
        trials=200, mean=137.77, stderr=0.5089999062108097, max_spill=162)


def test_mc_throw_spill_validation():
    with pytest.raises(InvalidParameterError):
        mc_throw_spill(8, 12, 2, trials=10, seed=0)
    with pytest.raises(InvalidParameterError):
        mc_throw_spill(8, 16, 2, trials=1, seed=0)
    # each bad argument is named, a non-integer one included
    for args, name in (((4.0, 4, 2, 10), "m"), ((4, 4.0, 2, 10), "n"),
                       ((4, 4, 2.5, 10), "c"), ((4, 4, 2, "10"), "trials"),
                       ((-1, 4, 2, 10), "m"), ((4, 4, 0, 10), "c"),
                       ((4, 4, 2, True), "trials")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} "):
            mc_throw_spill(*args, seed=0)


def test_stage_spill_below_fresh_throw_baseline():
    report = mc_prn_stage_spill(256, 2, 512, trials=400, seed=11)
    assert len(report.stage_mean) == 8
    for mean, err in zip(report.stage_mean, report.stage_stderr):
        budget = 3 * (err + report.throw.stderr)
        assert mean <= report.throw.mean + budget
    # a full-load throw must drop something on the way in
    assert report.input_overflow_mean > 0
    # live counts shrink by exactly the spills, so means are non-increasing
    assert list(report.stage_live_mean) == sorted(report.stage_live_mean,
                                                  reverse=True)
    assert report.stage_live_mean[0] <= 512
    d = report.to_dict()
    assert d["throw"]["trials"] == 400


def test_stage_spill_deterministic():
    a = mc_prn_stage_spill(64, 2, 100, trials=200, seed=3)
    b = mc_prn_stage_spill(64, 2, 100, trials=200, seed=3)
    assert a == b


def test_stage_spill_report_frozen():
    # 600 trials are two census blocks (512 + 88) of n=64, c=2: the m=4
    # comparator network, every stage; values taken from the kernel that
    # read and wrote each stage's pairs through a reshape view
    assert mc_prn_stage_spill(64, 2, 64, trials=600, seed=3).to_dict() == {
        "n": 64, "c": 2, "load": 64, "trials": 600,
        "stage_mean": (3.2716666666666665, 2.5816666666666666, 2.355,
                       2.1233333333333335, 1.7633333333333334, 1.63),
        "stage_stderr": (0.06967446231808092, 0.06028125355945498,
                         0.06315276811193898, 0.05619331579906437,
                         0.05364803507673091, 0.0500378265373847),
        "stage_live_mean": (57.545, 54.27333333333333, 51.69166666666667,
                            49.336666666666666, 47.21333333333333, 45.45),
        "throw": {"trials": 600, "mean": 6.4383333333333335,
                  "stderr": 0.09102334075619752, "max_spill": 13},
        "input_overflow_mean": 6.455,
    }


def test_stage_spill_report_frozen_at_one_and_three_slots():
    # loads that overflow the input throw, so buckets fill past c; values
    # taken from the throw that ranked each draw within its bucket and
    # tagged the first c, which the counting throw must reproduce
    assert mc_prn_stage_spill(16, 1, 16, trials=50, seed=2).to_dict() == {
        "n": 16, "c": 1, "load": 16, "trials": 50,
        "stage_mean": (1.64, 1.34, 0.84, 0.62),
        "stage_stderr": (0.15053645568365134, 0.1358570677482142,
                         0.11556427666375252, 0.09428571428571425),
        "stage_live_mean": (10.28, 8.64, 7.3, 6.46),
        "throw": {"trials": 50, "mean": 5.44,
                  "stderr": 0.16941676663284105, "max_spill": 8},
        "input_overflow_mean": 5.72,
    }
    # 600 trials are two census blocks (512 + 88)
    assert mc_prn_stage_spill(32, 3, 90, trials=600, seed=4).to_dict() == {
        "n": 32, "c": 3, "load": 90, "trials": 600,
        "stage_mean": (6.503333333333333, 4.703333333333333, 3.87,
                       3.058333333333333, 2.5883333333333334),
        "stage_stderr": (0.09845768525396296, 0.08448332828612314,
                         0.07683681006647082, 0.07230520110763641,
                         0.06393945238087424),
        "stage_live_mean": (72.105, 65.60166666666667, 60.89833333333333,
                            57.028333333333336, 53.97),
        "throw": {"trials": 600, "mean": 17.743333333333332,
                  "stderr": 0.12244578295891692, "max_spill": 26},
        "input_overflow_mean": 17.895,
    }


def test_stage_spill_validation():
    with pytest.raises(InvalidParameterError):
        mc_prn_stage_spill(60, 2, 10, trials=10, seed=0)
    with pytest.raises(InvalidParameterError):
        mc_prn_stage_spill(64, 2, 129, trials=10, seed=0)
    with pytest.raises(InvalidParameterError):
        mc_prn_stage_spill(64, 2, 100, trials=1, seed=0)
    for args, name in (((4.0, 2, 4, 10), "n"), ((4, 1.5, 4, 10), "c"),
                       ((4, 2, 4.0, 10), "load"), ((4, 2, 4, 10.0), "trials"),
                       ((4, 0, 4, 10), "c")):
        with pytest.raises(InvalidParameterError, match=rf"^{name} "):
            mc_prn_stage_spill(*args, seed=0)


# one census block, two (the frozen case above), and three; one throw
# chunk, and five
ESTIMATES = (
    lambda: mc_prn_stage_spill(64, 2, 64, trials=200, seed=3),
    lambda: mc_prn_stage_spill(64, 2, 64, trials=600, seed=3),
    lambda: mc_prn_stage_spill(32, 3, 90, trials=1100, seed=4),
    lambda: mc_throw_spill(512, 256, 2, trials=200, seed=7),
    lambda: mc_throw_spill(512, 256, 2, trials=1100, seed=7),
)


def use_cpus(monkeypatch, cpus: int, max_threads: int = 2) -> None:
    monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(analysis, "_MAX_THREADS", max_threads)


def test_reports_do_not_depend_on_the_thread_count(monkeypatch):
    reports = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus, max_threads=cpus)
        reports[cpus] = [estimate() for estimate in ESTIMATES]
    assert reports[2] == reports[1]
    assert reports[3] == reports[1]


def test_concurrent_calls_each_get_the_serial_report(monkeypatch):
    # two callers at once, each running its blocks on two threads: no block
    # of one call may touch another's scratch or rows
    use_cpus(monkeypatch, 1)
    want = mc_prn_stage_spill(32, 3, 90, trials=1100, seed=4)
    use_cpus(monkeypatch, 2)
    got = [None, None]

    def call(i):
        got[i] = mc_prn_stage_spill(32, 3, 90, trials=1100, seed=4)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()
    assert got == [want, want]


@pytest.mark.parametrize("cpus,max_threads,blocks,threads", [
    (3, 3, 7, 3), (3, 3, 2, 2), (1, 3, 4, 1), (3, 2, 7, 2), (8, 2, 7, 2)])
def test_blocks_run_once_each_on_the_usable_cpus(monkeypatch, cpus,
                                                 max_threads, blocks, threads):
    # one thread per usable CPU, the caller's included, but never more
    # threads than _MAX_THREADS or than blocks; the barrier keeps each thread
    # alive (and its ident unused by another) until all have entered
    use_cpus(monkeypatch, cpus, max_threads)
    barrier = threading.Barrier(threads, timeout=30)
    entered, ran = [], []

    def work(block_ids):
        entered.append(threading.get_ident())
        barrier.wait()
        ran.extend(block_ids)

    analysis._on_usable_cpus(work, blocks)
    assert sorted(ran) == list(range(blocks))
    assert len(set(entered)) == len(entered) == threads
    assert threading.get_ident() in entered


def test_a_replaced_callee_keeps_every_block_on_the_calling_thread(monkeypatch):
    # a wrapper (a tracer's, say) need not be thread-safe, so the blocks of
    # a call that would meet it run on the caller alone, to the same report
    use_cpus(monkeypatch, 2)
    want = mc_prn_stage_spill(32, 3, 90, trials=1100, seed=4)
    callers = set()
    census = analysis.route_census

    def wrapped(*args, **kwargs):
        callers.add(threading.get_ident())
        return census(*args, **kwargs)

    monkeypatch.setattr(analysis, "route_census", wrapped)
    assert mc_prn_stage_spill(32, 3, 90, trials=1100, seed=4) == want
    assert callers == {threading.get_ident()}


def test_a_helper_threads_error_reaches_the_caller(monkeypatch):
    # the caller leaves every block to its helper, which raises on its first
    use_cpus(monkeypatch, 2)
    caller = threading.get_ident()

    def work(block_ids):
        if threading.get_ident() != caller:
            next(block_ids)
            raise ValueError("helper failed")

    with pytest.raises(ValueError, match="helper failed"):
        analysis._on_usable_cpus(work, 8)


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_an_error_stops_the_other_thread_after_its_block(monkeypatch, failing):
    # one thread fails once the other has taken a block; the other must take
    # no further block (undrained, it would run all 1000, 20 s)
    use_cpus(monkeypatch, 2)
    caller = threading.get_ident()
    started = threading.Event()
    ran = []

    def work(block_ids):
        if (threading.get_ident() == caller) == (failing == "caller"):
            started.wait(timeout=30)
            raise ValueError(f"{failing} failed")
        for block_id in block_ids:
            ran.append(block_id)
            started.set()
            time.sleep(0.02)

    with pytest.raises(ValueError, match=f"{failing} failed"):
        analysis._on_usable_cpus(work, 1000)
    assert 1 <= len(ran) < 100


def test_decay_check_small_run():
    report = decay_check(1024, 4, 3, trials=5, seed=99)
    assert report.failures == 0
    assert report.monotone
    # the initial throw spills a handful of elements past table 0
    assert 1024 - 30 <= report.mean_arrivals[0] <= 1024.0
    assert report.arrival_bound_table3 == 188.35427387977848
    assert report.mean_arrivals[2] <= report.arrival_bound_table3
    assert len(report.max_occupancy) == 3
    assert sum(report.max_occupancy) >= 1024  # reals land somewhere


def test_decay_check_rejects_toy_sizes():
    with pytest.raises(InvalidParameterError):
        decay_check(512, 4, 3, trials=2, seed=0)
    with pytest.raises(InvalidParameterError):
        decay_check(1024, 4, 3, trials=0, seed=0)


def test_cost_model_frozen_large():
    cm = cost_model(1 << 14, 64)
    assert cm.num_levels == 9
    assert cm.online_min == 68
    assert cm.online_max == 97
    assert cm.total_period == 11036672
    assert cm.amortized == 673.625
    assert cm.amortized == cm.total_period / cm.capacity


def test_cost_model_frozen_medium():
    cm = cost_model(1 << 10, 16)
    assert cm.num_levels == 7
    assert cm.online_min == 20
    assert cm.online_max == 38
    assert cm.total_period == 395296
    assert cm.amortized == 386.03125


def test_cost_model_overrides():
    base = cost_model(1 << 10, 16)
    thin = cost_model(1 << 10, 16, k_override=1, c_override=1)
    assert thin.online_max == 16 + 7
    assert thin.online_min == 16 + 1
    assert thin.total_period < base.total_period
