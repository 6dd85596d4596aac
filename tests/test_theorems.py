"""Harness tests: each theorem check on small, fast configurations."""

import pytest

from argred.theorems import (
    CheckConfig,
    CheckResult,
    check_correct1,
    check_correct2,
    check_correct3,
    check_eft,
    check_sterbenz,
    check_sterbenz_approx2,
    check_thm3,
    check_thm6,
    check_thm7,
    demo_codywaite,
    run_check,
)


def test_sterbenz_exhaustive_small():
    for beta, p in ((2, 5), (3, 3)):
        res = check_sterbenz(CheckConfig(theorem="sterbenz", beta=beta, p=p))
        assert res.passed
        assert res.cases == res.stats["closed_form_cases"]
        assert res.stats["condition_pairs"] > 0


def test_sterbenz_rejects_oversized_space():
    with pytest.raises(ValueError):
        check_sterbenz(CheckConfig(theorem="sterbenz", beta=2, p=16, window=100))


def test_sterbenz_approx2_both_directions():
    r1 = check_sterbenz_approx2(CheckConfig(theorem="sterbenz2", beta=2, p1=6, p2=3))
    r2 = check_sterbenz_approx2(CheckConfig(theorem="sterbenz2", beta=2, p1=3, p2=6))
    r3 = check_sterbenz_approx2(CheckConfig(theorem="sterbenz2", beta=3, p1=3, p2=2))
    assert r1.passed and r2.passed and r3.passed
    # p1 == p2 == p is Sterbenz's lemma: the same cases, failures and stats
    for beta in (2, 3):
        for p in range(2, 6):
            for ties in ("even", "away"):
                a = run_check(CheckConfig(theorem="sterbenz", beta=beta, p=p, ties=ties))
                b = run_check(CheckConfig(theorem="sterbenz2", beta=beta, p1=p, p2=p, ties=ties))
                assert a.passed and a.stats["condition_pairs"] > 0
                assert (a.cases, a.failures, a.stats) == (b.cases, b.failures, b.stats)


def test_thm3_and_correct3_sweep():
    cfg = CheckConfig(theorem="correct3", p=8, r_step=16)
    res = check_correct3(cfg)
    assert res.passed
    assert res.stats["ell_values"] == [2, 3, 4, 5, 6]  # exactly [2, p-2]
    res3 = check_thm3(CheckConfig(theorem="thm3", p=8, r_step=64))
    assert res3.passed and res3.theorem == "thm3"


def test_correct3_ties_away():
    res = check_correct3(CheckConfig(theorem="correct3", p=8, r_step=64, ties="away"))
    assert res.passed


@pytest.mark.slow
def test_correct3_higher_small_precisions():
    # strided R sweeps at p = 9 and 10; the full R space runs via the CLI
    for p, step in ((9, 8), (10, 32)):
        res = check_correct3(CheckConfig(theorem="correct3", p=p, r_step=step))
        assert res.passed, (p, res.failures[:3])
        assert res.stats["ell_values"][0] == 2 and res.stats["ell_values"][-1] == p - 2


def test_pipeline_sweep_respects_cap():
    with pytest.raises(ValueError):
        check_correct3(CheckConfig(theorem="correct3", p=14, window=60))


def test_correct1_exhaustive_small():
    res = check_correct1(
        CheckConfig(theorem="correct1", p=8, r_step=16, n_values=(0, 1), q_values=(2, 4))
    )
    assert res.passed and res.cases > 1000


def test_correct1_mining_q1_reports_without_failing():
    # weakened hypothesis: the run must complete and report honestly;
    # absence of a counterexample is informative, not asserted either way
    res = check_correct1(
        CheckConfig(theorem="correct1", p=6, r_step=4, n_values=(0,), q_values=(1,))
    )
    assert isinstance(res.failures, list)
    assert res.cases > 0


def _fpns_in_interval(lo, hi, fmt):
    """Canonical FPNs x with lo <= x <= hi, ascending, walked from
    round_nearest(lo) with next_up: the reference for correct1's cells."""
    from argred.softfp import round_nearest

    x = round_nearest(lo, fmt)  # a neighbour of lo
    if x.value < lo:
        x = x.next_up()
    while x.value <= hi:
        yield x
        x = x.next_up()


@pytest.mark.parametrize("p", [6, pytest.param(7, marks=pytest.mark.slow), pytest.param(8, marks=pytest.mark.slow)])
def test_correct1_cells_match_the_fraction_route(p):
    # every R, ell-bit k (ell in [2, p-1]) and N from 0 through the largest
    # N that C1_BOUND_Q lets correct1 run at any q (39 at p = 8, for q = 6),
    # and to 40: at p = 8 the cells reach the subnormal binade at
    # e_min_q = -40 from N = 33 on, and at N = 40 lie deep in it
    from fractions import Fraction

    from argred.constgen import C1_BOUND_Q
    from argred.theorems import _correct1_cell, _general_q_set, _sweep_format, _sweep_rs

    fmt = _sweep_format(p)
    rs = _sweep_rs(fmt, 1)
    sets = [cs for r in rs for q in range(1, p - 1) if (cs := _general_q_set(r, q, "even")) is not None]
    n_top = max(n for cs in sets for n in range(60) if C1_BOUND_Q.holds(cs, n))
    assert n_top <= 40
    subnormal = 0
    for r in rs:
        for n in range(41):
            half = Fraction(1, 1 << (n + 1))
            for k in range(2, 1 << (p - 1)):
                z = Fraction(k, 1 << n)
                want = [(x.m, x.e) for x in _fpns_in_interval((z - half) / r.value, (z + half) / r.value, fmt)]
                got = list(_correct1_cell(k, n, r.m, r.e, fmt))
                assert got == want, (r.to_text(), n, k)
                subnormal += any(m >> (p - 1) == 0 for m, _ in got)
    assert subnormal > 0
    # the cell of -z is the cell of z negated
    r, n, k = rs[3], 2, 5
    z, half = Fraction(-k, 1 << n), Fraction(1, 1 << (n + 1))
    negated = [(-x).to_text() for x in _fpns_in_interval((z - half) / r.value, (z + half) / r.value, fmt)]
    assert negated[::-1] == [f"{m} * 2^{e}" for m, e in _correct1_cell(k, n, r.m, r.e, fmt)]


@pytest.mark.parametrize("p", [6, 8])
def test_in_range_is_the_linear_filter(p):
    # the bisected prefix of _sweep_xs against the filter over all of it,
    # for every R; the windows and N include an (R, N) with no x in range
    # and one with every x in range
    from argred.reduction import xr_in_bounds
    from argred.theorems import _in_range, _sweep_format, _sweep_rs, _sweep_xs

    fmt = _sweep_format(p)
    sizes = set()
    for window in (1, 4, 12):
        xs = _sweep_xs(fmt, window)
        for r in _sweep_rs(fmt, 1):
            for n in (0, 1, 2, 5):
                got = _in_range(r, window, n)
                assert list(got) == [t for t in xs if xr_in_bounds(t[0], r, n)], (window, r.to_text(), n)
                sizes.add("none" if not got else "all" if len(got) == len(xs) else "some")
    assert sizes == {"none", "all", "some"}


def test_sweeps_bisect_the_range_and_extract_each_x_once(monkeypatch):
    # _in_range probes ceil(log2(3 072 + 1)) = 12 x of a 12-binade p = 8
    # window, not all 3 072; exhaustive thm6 extracts each x once per (R, N)
    # for all of its C2 multiples
    import argred.theorems as theorems

    probes, extracted = [], []
    real_fits, real_extract = theorems._xr_fits, theorems._extract_pairs
    monkeypatch.setattr(theorems, "_xr_fits", lambda *a: probes.append(a) or real_fits(*a))
    fmt = theorems._sweep_format(8)
    for r in theorems._sweep_rs(fmt, 16):
        probes.clear()
        assert theorems._in_range(r, 12, 1) and len(probes) <= 12
    monkeypatch.setattr(
        theorems, "_extract_pairs", lambda xn, xe, rn, re, sn, se, n, *rest: extracted.append((xn, xe, rn, re, n))
        or real_extract(xn, xe, rn, re, sn, se, n, *rest)
    )
    res = run_check(CheckConfig(theorem="thm6", mode="exhaustive", p=8, r_step=64, n_values=(0, 2), window=4))
    assert res.passed and len(set(extracted)) == len(extracted) and res.cases > 4 * len(extracted)


def test_correct2_small():
    res = check_correct2(
        CheckConfig(theorem="correct2", p=8, r_step=32, n_values=(0, 1), q_values=(2, 3, 4))
    )
    assert res.passed
    assert res.stats["rc1_filtered"] >= 0


def test_thm6_randomized_small():
    cfg = CheckConfig(
        theorem="thm6", mode="randomized", constant="pi", fmt="double",
        n_values=(0,), trials=5000, seed=42,
    )
    res = check_thm6(cfg)
    assert res.passed and res.cases == 5000
    assert res.stats["ops_always_9"]


def test_thm6_randomized_deterministic_and_jobs_invariant():
    base = dict(
        theorem="thm6", mode="randomized", constant="ln2", fmt="double",
        n_values=(5,), trials=3000, seed=99,
    )
    a = check_thm6(CheckConfig(**base)).to_record()
    b = check_thm6(CheckConfig(**base)).to_record()
    c = check_thm6(CheckConfig(**base, jobs=2)).to_record()
    a["config"].pop("jobs", None)
    assert a == b
    assert a["failures"] == c["failures"] and a["cases"] == c["cases"]


def test_thm6_exhaustive_small():
    res = check_thm6(
        CheckConfig(theorem="thm6", mode="exhaustive", p=8, r_step=64, n_values=(0,))
    )
    assert res.passed and res.cases > 1000


def test_thm6_case_records_a_fast2mult_underflow():
    # on a format with e_min_q = -12, extraction at N = 1 gives a z whose
    # Fast2Mult error term against C2 falls below the quantum: the case
    # function both thm6 campaigns run records a failure, not a traceback
    from argred.constgen import ConstantSet
    from argred.softfp import Format, Fpn
    from argred.theorems import _run_second_step_case

    fmt = Format(8, -12, 40)
    cs = ConstantSet(
        None, fmt, 1, 2, Fpn(1, 163, -8, fmt), Fpn(1, 160, -7, fmt), Fpn(1, 129, -12, fmt), Fpn.zero(fmt)
    )
    entry = _run_second_step_case(202, -9, cs, cs.lane, "even")
    assert entry["x"] == "202 * 2^-9" and entry["N"] == 1
    assert entry["error"].startswith("error-free transformation failed: fast2mult error term")


def test_thm7_presets():
    res = check_thm7(CheckConfig(theorem="thm7"))
    assert res.passed and res.cases == 8


def test_eft_small():
    res = check_eft(CheckConfig(theorem="eft", trials=20000, seed=3))
    assert res.passed and res.cases == 20000


def test_eft_chunk_draws_its_operands_as_randrange_did(monkeypatch):
    # the eft chunk's getrandbits draw against a randrange-based one: the
    # same (a, b) reach fast2mult, and the RNG state after is the same
    import random

    import argred.theorems as theorems
    from argred.softfp import DOUBLE, Fpn

    real_random, real_fast2mult = random.Random, theorems.fast2mult
    made, seen = [], []

    class Kept(real_random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    def spy(a, b, ties):
        seen.append((a, b))
        return real_fast2mult(a, b, ties)

    monkeypatch.setattr(random, "Random", Kept)
    monkeypatch.setattr(theorems, "fast2mult", spy)
    for seed, ties in ((1234, "even"), (5, "away")):
        made.clear()
        seen.clear()
        assert theorems._eft_chunk((seed, 3000, ties)) == (3000, [], {})
        ref = real_random(seed)

        def draw():
            return Fpn(1 if ref.random() < 0.5 else -1, ref.randrange(1 << 52, 1 << 53), ref.randrange(-30, 30), DOUBLE)

        assert seen == [(draw(), draw()) for _ in range(3000)]
        assert made[0].getstate() == ref.getstate()


def test_demo_codywaite():
    report = demo_codywaite()
    assert report["fma_exact"] is True
    assert report["two_round_product_inexact"] is True
    assert report["fma_error_vs_x_zC1"] == "0"
    assert report["two_round_error_vs_x_zC1full"] not in ("0", "")
    assert report["cancellation_bits"] >= 1


def test_run_check_dispatch():
    res = run_check(CheckConfig(theorem="sterbenz", beta=2, p=4))
    assert res.theorem == "sterbenz"
    with pytest.raises(ValueError):
        run_check(CheckConfig(theorem="nope"))


def test_result_record_schema():
    res = run_check(CheckConfig(theorem="thm7"))
    rec = res.to_record()
    assert set(rec) == {"theorem", "config", "cases", "failures", "stats", "pass"}
    assert rec["pass"] is True


def test_campaigns_refuse_zero_trials():
    for theorem in ("thm6", "eft"):
        for trials in (0, -5):
            with pytest.raises(ValueError, match="trials"):
                run_check(CheckConfig(theorem=theorem, mode="randomized", trials=trials))


def test_checks_refuse_empty_n_and_q_lists():
    cases = [
        dict(theorem="thm6", mode="randomized", n_values=()),
        dict(theorem="thm6", mode="randomized", q_values=()),
        dict(theorem="thm6", mode="exhaustive", n_values=()),
        dict(theorem="thm3", n_values=()),
        dict(theorem="correct3", n_values=()),
        dict(theorem="correct3", q_values=()),
        dict(theorem="correct2", n_values=()),
        dict(theorem="correct2", q_values=()),
        dict(theorem="correct1", n_values=()),
        dict(theorem="correct1", q_values=()),
    ]
    for fields in cases:
        empty = "n_values" if "n_values" in fields else "q_values"
        with pytest.raises(ValueError, match=f"{empty} is empty"):
            run_check(CheckConfig(p=8, r_step=64, trials=10, **fields))


def test_sterbenz_runs_through_the_kernel_in_radix_2():
    for ties in ("even", "away"):
        res = check_sterbenz(CheckConfig(theorem="sterbenz", beta=2, p=4, ties=ties))
        assert res.passed
        assert res.stats["kernel_pairs"] == res.stats["condition_pairs"] > 0
        res2 = check_sterbenz_approx2(CheckConfig(theorem="sterbenz2", beta=2, p1=6, p2=3, ties=ties))
        assert res2.passed
        assert res2.stats["kernel_pairs"] == res2.stats["condition_pairs"] > 0
    # radix 3, or a precision the kernel does not take: the lemma alone
    assert check_sterbenz(CheckConfig(theorem="sterbenz", beta=3, p=3)).stats["kernel_pairs"] == 0
    assert check_sterbenz(CheckConfig(theorem="sterbenz", beta=2, p=3)).stats["kernel_pairs"] == 0
    res = check_sterbenz_approx2(CheckConfig(theorem="sterbenz2", beta=2, p1=3, p2=2))
    assert res.stats["kernel_pairs"] == 0


def test_sterbenz_counts_a_wrong_kernel_result(monkeypatch):
    import argred.theorems as theorems
    from argred.softfp import OpResult

    real_sub, real_round = theorems.sub, theorems.round_nearest

    def inexact_away(a, b, ties="even"):
        out = real_sub(a, b, ties)
        return OpResult(out.value, out.exact and ties != "away")

    def off_by_one_ulp_away(v, fmt, target_p=None, ties="even"):
        out = real_round(v, fmt, target_p, ties)
        return out.next_up() if ties == "away" and v else out

    monkeypatch.setattr(theorems, "sub", inexact_away)
    monkeypatch.setattr(theorems, "round_nearest", off_by_one_ulp_away)
    for check, kw in ((check_sterbenz, dict(p=4)), (check_sterbenz_approx2, dict(p1=5, p2=4))):
        assert check(CheckConfig(theorem="sterbenz", beta=2, **kw)).passed
        res = check(CheckConfig(theorem="sterbenz", beta=2, ties="away", **kw))
        assert not res.passed and res.failures


def test_sweep_format_is_one_instance_per_p():
    from argred.theorems import _sweep_format

    assert _sweep_format(8) is _sweep_format(8)
    assert _sweep_format(9) is not _sweep_format(8)


def test_s_bound_is_exact_at_the_half_quantum():
    from fractions import Fraction

    from argred.reduction import s_within_half as _s_within_half

    for n in (0, 1, 2, 5):
        half = Fraction(1, 2 ** (n + 1))
        for k in range(7):
            # |s| = 2^(-N-1) exactly, at several scalings, both signs
            assert _s_within_half(1 << k, -n - 1 - k, n)
            assert _s_within_half(-(1 << k), -n - 1 - k, n)
            # the next dyadic value above it on the 2^(-N-1-k) grid
            assert not _s_within_half((1 << k) + 1, -n - 1 - k, n)
            assert not _s_within_half(-(1 << k) - 1, -n - 1 - k, n)
        for s_num in range(-40, 41):
            for s_exp in range(-n - 8, 3):
                s = Fraction(s_num) * Fraction(2) ** s_exp
                assert _s_within_half(s_num, s_exp, n) == (abs(s) <= half), (s_num, s_exp, n)


def test_x_minus_zc1_is_exact():
    import random
    from fractions import Fraction

    from argred.softfp import Fpn
    from argred.theorems import _sweep_format, _x_minus_zc1

    fmt = _sweep_format(8)
    rng = random.Random(5)
    for _ in range(2000):
        x, z, c1 = (
            Fpn(rng.choice((1, -1)), rng.randrange(0, 256), rng.randrange(-20, 20), fmt)
            for _ in range(3)
        )
        num, e0 = _x_minus_zc1(x.sign * x.m, x.e, z.sign * z.m, z.e, c1.sign * c1.m, c1.e)
        assert Fraction(num) * Fraction(2) ** e0 == x.value - z.value * c1.value


def test_correct3_sweep_makes_no_format_comparisons(monkeypatch):
    import argred.reduction as reduction
    from argred.constgen import synthetic_set
    from argred.softfp import Format, Fpn

    calls = []
    real_eq = Format.__eq__

    def counting_eq(self, other):
        calls.append((self, other))
        return real_eq(self, other)

    # another caller's equal but separately built Format gets its sigmas
    # first; the sweep must still get a sigma of its own format
    other = Format(p=8, e_min_q=-40, e_max=96)
    cs = synthetic_set(Fpn(1, 0b10100011, -8, other), n=2)
    for n in (0, 2):
        reduction.extract_z(Fpn.from_int(3, other), cs, n)
    monkeypatch.setattr(Format, "__eq__", counting_eq)
    res = check_correct3(CheckConfig(theorem="correct3", p=8, r_step=64, n_values=(0, 2)))
    assert res.passed and res.cases > 1000
    assert calls == []


@pytest.mark.parametrize(
    "fields",
    [
        dict(theorem="thm6", mode="exhaustive", p=14, window=60),
        dict(theorem="correct3", p=14, window=60),
        dict(theorem="thm3", p=14, window=60),
        dict(theorem="correct2", p=14, window=60),
    ],
    ids=["thm6", "correct3", "thm3", "correct2"],
)
def test_sweeps_refuse_oversized_spaces_before_running(monkeypatch, fields):
    import argred.theorems as theorems

    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    for name in (
        "_sweep_format", "_sweep_xs", "_sweep_rs", "synthetic_set", "extract_z", "_run_second_step_case",
        "_extract_pairs", "_fma_pairs", "_second_step_pairs", "_first_step_head",
    ):
        monkeypatch.setattr(theorems, name, never)
    with pytest.raises(ValueError, match="exceeds the exhaustive cap"):
        run_check(CheckConfig(**fields))


SWEEPS = [
    dict(theorem="thm3"),
    dict(theorem="correct1"),
    dict(theorem="correct2"),
    dict(theorem="correct3"),
    dict(theorem="thm6", mode="exhaustive"),
]


@pytest.mark.parametrize(
    "fields, bad",
    [(f, b) for f in SWEEPS for b in (dict(r_step=0), dict(r_step=-1), dict(window=0), dict(window=-3))
     if not (f["theorem"] == "correct1" and "window" in b)],
    ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items() if k != "mode"),
)
def test_sweeps_refuse_a_window_or_r_step_below_1(fields, bad):
    # either would enumerate no case and report a pass; correct1 reads
    # no window (its x values follow from each z)
    (name, value), = bad.items()
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
        run_check(CheckConfig(p=8, **fields, **bad))


def test_sweeps_run_their_r_tasks_on_the_process_pool(monkeypatch):
    # jobs reaches every sweep: at jobs=2 each runs its (q, R) tasks on a
    # pool of two workers, with the cases, failures and stats of jobs=1;
    # the pool is imported where it starts, so the spy sits at its source
    import concurrent.futures
    import dataclasses

    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    for fields in SWEEPS:
        cfg = CheckConfig(p=8, r_step=32, window=2, n_values=(0, 1), **fields)
        one, two = run_check(cfg), run_check(dataclasses.replace(cfg, jobs=2))
        assert one.cases > 0 and (one.cases, one.failures, one.stats) == (two.cases, two.failures, two.stats)
    assert pools == [2] * len(SWEEPS)


def test_campaign_pool_has_at_most_one_worker_per_task(monkeypatch):
    # a fork pool starts all its workers at the first submit, so --jobs 64
    # on a two-task thm6 campaign must ask for two; the stub maps in process
    import concurrent.futures
    import dataclasses

    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = CheckConfig(theorem="thm6", mode="randomized", n_values=(0, 1), trials=200, seed=5)
    one, wide = run_check(cfg), run_check(dataclasses.replace(cfg, jobs=64))
    assert pools == [2] and wide.stats["chunks"] == 2
    assert (one.cases, one.failures) == (wide.cases, wide.failures) == (400, [])


def test_thm6_refuses_q_values_it_would_ignore():
    # randomized runs one q; exhaustive runs q = 2 only
    for mode, q_values in (("randomized", (2, 3)), ("exhaustive", (5,)), ("exhaustive", (2, 3))):
        with pytest.raises(ValueError, match="q"):
            run_check(CheckConfig(theorem="thm6", mode=mode, p=8, r_step=64, trials=10, q_values=q_values))
    res = run_check(CheckConfig(theorem="thm6", mode="randomized", n_values=(0,), q_values=(3,), trials=50))
    assert res.passed and res.cases == 50


def test_thm6_exhaustive_counts_c2_multiples_against_the_cap():
    from argred.theorems import EXHAUSTIVE_CAP, _sweep_space

    # p=9, 20 binades: 10 240 x values * 512 R values * 3 N values is
    # 1.57e7 triples, under the cap once but not with 8 C2 multiples each
    cfg = CheckConfig(theorem="thm6", mode="exhaustive", p=9, window=20)
    _, rs, xs = _sweep_space(cfg, 10, 1)
    assert len(xs) * len(rs) * 3 <= EXHAUSTIVE_CAP < len(xs) * len(rs) * 3 * 8
    with pytest.raises(ValueError, match="exceeds the exhaustive cap"):
        _sweep_space(cfg, 10, 8)


def test_thm3_records_a_small_z_off_the_grid(monkeypatch):
    # z*2^N must be an integer for every z, below the theorem's range too:
    # move z = +-2^-N (ell = 1) one ulp off the 2^-N grid
    import argred.reduction as reduction

    real_round_int = reduction._round_int

    def off_grid(n, e, digits, fmt, ties):
        r = real_round_int(n, e, digits, fmt, ties)
        # z = o(t - sigma) = +-2^-N, N in {0, 1, 2}, is r = +-2^j * 2^-e with
        # j in {0, -1, -2}; t = o(x*R + sigma) >= 2^(p-N-1) never is.  Its
        # ulp 2^(j-p+1) is at or above the scale e of x*R
        a = abs(r)
        if a & (a - 1) == 0 and -2 <= a.bit_length() - 1 + e <= 0 and a.bit_length() > fmt.p:
            ulp = 1 << (a.bit_length() - fmt.p)
            return r + (ulp if r > 0 else -ulp)
        return r

    monkeypatch.setattr(reduction, "_round_int", off_grid)
    res = check_thm3(CheckConfig(theorem="thm3", p=8, r_step=64))
    assert not res.passed and res.failures
    assert all("z*2^N is not an integer" in f["error"] for f in res.failures)


def test_thm6_flop_count_is_live(monkeypatch):
    # every early exit of the second step raises, so its count can only
    # differ from 9 through its own bookkeeping: leave the Fast2Sum core's
    # three roundings uncounted and the campaign must see it
    import argred.reduction as reduction

    real_fast2sum = reduction._fast2sum_scaled

    def uncounted(an, bn, e, fmt, ties, counter):
        return real_fast2sum(an, bn, e, fmt, ties, None)

    monkeypatch.setattr(reduction, "_fast2sum_scaled", uncounted)
    cfg = CheckConfig(
        theorem="thm6", mode="randomized", constant="pi", fmt="double", n_values=(0,), trials=50, seed=3, jobs=1
    )
    res = run_check(cfg)
    assert res.cases == 50 and len(res.failures) == 50 and not res.passed
    assert {f["ops"] for f in res.failures} == {6}
    assert all(f["exact_first"] and f["exact_second"] for f in res.failures)
    assert res.stats["ops_always_9"] is False


def test_a_check_that_ran_no_case_does_not_pass():
    assert not CheckResult("thm3", {}, 0).passed
    assert CheckResult("thm3", {}, 1).passed
    assert not CheckResult("thm3", {}, 1, [{"x": 1}]).passed


# ---------------------------------------------------------------------------
# the thm6 campaign and sweep on the pair core against the public stages
# ---------------------------------------------------------------------------


def _public_case(x, cs, n, ties):
    """One thm6 case chained through extract_z, first_step and
    second_step: the record _run_second_step_case must give."""
    from argred.reduction import ReductionRangeError, TheoremViolation, extract_z, first_step, second_step

    try:
        z, _ = extract_z(x, cs, n, ties)
        u, exact1 = first_step(x, z, cs, ties)
        ss = second_step(x, z, u, cs, ties)
    except (TheoremViolation, ReductionRangeError) as exc:
        return {"x": x.to_text(), "N": n, "error": str(exc)}
    if not exact1 or not ss.exact or ss.ops != 9:
        return {"x": x.to_text(), "N": n, "exact_first": exact1, "exact_second": ss.exact, "ops": ss.ops}
    return None


def _public_draw(rng, fmt, r, n):
    """The campaign's draw on Fpn values, redrawn until it is an FPN (Fpn()
    refuses an m*2^e below the quantum) with |x*R| in range."""
    from argred.reduction import xr_in_bounds
    from argred.softfp import Fpn

    e_hi = -n - 2
    while True:
        sign = 1 if rng.random() < 0.5 else -1
        try:
            x = Fpn(sign, rng.randrange(1 << (fmt.p - 1), 1 << fmt.p), rng.randrange(e_hi - fmt.p - 24, e_hi + 1), fmt)
        except ValueError:
            continue
        if xr_in_bounds(x, r, n):
            return x


def _public_chunk(args):
    """_thm6_chunk through the public stages; the set, the format and
    the RNG are looked up where _thm6_chunk looks them up."""
    import random

    import argred.theorems as theorems

    constant, fmt_label, n, q, seed, trials, ties = args
    fmt = theorems.FORMATS[fmt_label]
    cs = theorems.gen_constants(theorems.NAMED_CONSTANTS[constant], fmt, n=n, q=q)
    rng = random.Random(seed)
    records = [_public_case(_public_draw(rng, fmt, cs.r, n), cs, n, ties) for _ in range(trials)]
    return trials, [f for f in records if f is not None], {}


def _public_thm6_exhaustive(cfg):
    """Exhaustive thm6 through the public stages: (cases, failures, stats)."""
    import argred.theorems as theorems
    from argred.constgen import HypothesisViolation
    from argred.reduction import xr_in_bounds
    from argred.softfp import Fpn, ulp, ulp2

    _, rs, xs = theorems._sweep_space(cfg, 10, 8)
    failures, cases, skipped = [], 0, 0
    for r in rs:
        fmt = r.fmt
        for n in cfg.n_values:
            try:
                base = theorems.synthetic_set(r, n=n, q=2)
            except HypothesisViolation:
                skipped += 1
                continue
            grid = 8 * ulp2(base.c1)
            kmax = int((4 * ulp(base.c1)) / grid)
            for kk in sorted({0, 1, -1, 5, -5, kmax, -kmax, kmax - 1}):
                try:
                    cs = theorems.synthetic_set(r, n=n, q=2, c2=Fpn.from_fraction(kk * grid, fmt))
                except (HypothesisViolation, ValueError):
                    skipped += 1
                    continue
                for x, *_ in xs:
                    if xr_in_bounds(x, r, n):
                        cases += 1
                        entry = _public_case(x, cs, n, cfg.ties)
                        if entry is not None:
                            failures.append({**entry, "R": r.to_text(), "C2": cs.c2.to_text()})
    return cases, theorems.sorted_failures(failures), {"r_values": len(rs), "skipped": skipped}


def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _c2_off_grid(real_synthetic_set):
    """synthetic_set with each given C2 moved by ulp2(C1)/8, off the
    8*ulp2(C1) grid: t1 or v1 then leaves its grid, or the last line rounds."""
    import dataclasses

    from argred.softfp import Fpn, ulp2

    def make(r, n=0, q=2, c2=None):
        cs = real_synthetic_set(r, n=n, q=q, c2=c2)
        if c2 is None:
            return cs
        return dataclasses.replace(cs, c2=Fpn.from_fraction(c2.value + ulp2(cs.c1) / 8, r.fmt))

    return make


def _campaign_draws(rng, fmt, r, n, count):
    """count x of the campaign's draw, as Fpns."""
    from itertools import islice

    from argred.softfp import _rounded
    from argred.theorems import _random_xs

    return [_rounded(xn, xe, fmt) for xn, xe in islice(_random_xs(rng, fmt, r.m, r.e, n), count)]


def test_random_in_range_x_draws_as_the_fpn_draw_did():
    # the campaign's getrandbits draw against the randrange-based Fpn draw:
    # the same x, and the same RNG state after, for both constants, every
    # preset and N in {0, 5, 10}.  At single with N = 100 the window starts
    # at 2^-150, below e_min_q: both sides canonicalize an even m there to
    # a subnormal and draw an odd one again
    import random

    from argred.constgen import gen_constants
    from argred.realnum import LN2, PI
    from argred.softfp import FORMATS, SINGLE

    cases = [(c, fmt, n) for c in (LN2, PI) for fmt in FORMATS.values() for n in (0, 5, 10)]
    for constant, fmt, n in cases + [(LN2, SINGLE, 100)]:
        cs = gen_constants(constant, fmt, n=n)
        a, b = random.Random(11), random.Random(11)
        drawn = _campaign_draws(a, fmt, cs.r, n, 2000)
        assert drawn == [_public_draw(b, fmt, cs.r, n) for _ in range(2000)], (constant.name, fmt, n)
        assert a.getstate() == b.getstate()
        assert any(x.m >> (fmt.p - 1) == 0 for x in drawn) == (n == 100)


@pytest.mark.parametrize(
    "constant, fmt_label, n, ties",
    [("pi", "double", 0, "even"), ("ln2", "double", 5, "away"), ("pi", "single", 10, "even"),
     ("ln2", "quad", 3, "away"), ("pi", "double-extended", 1, "even")],
)
def test_thm6_chunk_records_match_the_public_stages(constant, fmt_label, n, ties):
    from argred.theorems import _thm6_chunk

    args = (constant, fmt_label, n, 2, 1234 + n, 1500, ties)
    assert _thm6_chunk(args) == _public_chunk(args)


def test_thm6_chunk_skips_an_x_one_ulp_past_the_range_as_the_public_draw_does(monkeypatch):
    # the first draw is one ulp past the range, the second its edge; both
    # sides must redraw the first and run the second, then go on as seeded
    import random

    from argred.constgen import gen_constants
    from argred.realnum import LN2
    from argred.reduction import xr_bound, xr_in_bounds
    from argred.softfp import DOUBLE, round_nearest
    from argred.theorems import _thm6_chunk

    n = 3
    cs = gen_constants(LN2, DOUBLE, n=n)
    top = round_nearest(xr_bound(DOUBLE, n) / cs.r.value, DOUBLE)
    while not xr_in_bounds(top, cs.r, n):
        top = -((-top).next_up())
    past = top.next_up()
    assert not xr_in_bounds(past, cs.r, n) and past.e == top.e == -n - 2

    # randrange's raw draws: the significand above 2^(p-1), the exponent
    # above the window's lowest, e_lo = -N - p - 26
    e_lo = -n - DOUBLE.p - 26
    made = []

    class Scripted(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.queue = [v for x in (past, top) for v in (0.0, x.m - (1 << (DOUBLE.p - 1)), x.e - e_lo)]
            made.append(self)

        def random(self):
            return self.queue.pop(0) if self.queue else super().random()

        def getrandbits(self, k):
            return self.queue.pop(0) if self.queue else super().getrandbits(k)

    monkeypatch.setattr(random, "Random", Scripted)
    for ties in ("even", "away"):
        args = ("ln2", "double", n, 2, 77, 400, ties)
        assert _thm6_chunk(args) == _public_chunk(args)
    # each side of each tie mode took the whole script
    assert len(made) == 4 and not any(rng.queue for rng in made)


def test_thm6_chunk_matches_the_public_stages_on_injected_faults(monkeypatch):
    import argred.theorems as theorems
    from argred.constgen import HypothesisViolation, synthetic_set
    from argred.softfp import Fpn, ulp2
    from argred.theorems import _thm6_chunk

    real_gen = theorems.gen_constants
    # a set built at N = 0 run at N = 5: extraction above cs.n, and a z
    # whose own N is above cs.n in the second step; covered
    monkeypatch.setattr(theorems, "gen_constants", lambda c, fmt, n, q: real_gen(c, fmt, n=0, q=q))
    args = ("pi", "double", 5, 2, 5, 1000, "even")
    assert _outcome(_thm6_chunk, args) == _outcome(_public_chunk, args)
    assert _outcome(_thm6_chunk, args)[1] == []
    # ... and not covered: the same HypothesisViolation on both sides
    args = ("pi", "double", 972, 2, 5, 100, "even")
    got = _outcome(_thm6_chunk, args)
    assert got == _outcome(_public_chunk, args)
    assert got == (HypothesisViolation, "N=972 is above the set's N=0 and fails " + got[1].split("fails ")[1])

    # C2 off its grid on a p = 8 set: grid violations and rounded last lines
    fmt = theorems._sweep_format(8)
    monkeypatch.setitem(theorems.FORMATS, "p8", fmt)
    off = _c2_off_grid(synthetic_set)
    r = Fpn(1, 143, -7, fmt)
    c2 = Fpn.from_fraction(8 * ulp2(synthetic_set(r).c1), fmt)
    monkeypatch.setattr(theorems, "gen_constants", lambda c, f, n, q: off(r, n=n, q=q, c2=c2))
    errors = set()
    for ties in ("even", "away"):
        args = ("pi", "p8", 1, 2, 9, 5000, ties)
        got = _outcome(_thm6_chunk, args)
        assert got == _outcome(_public_chunk, args)
        errors |= {f["error"].split(":")[0] for f in got[1] if "error" in f}
    assert errors == {"t1 is not a multiple of 2^(-N-1)*ulp2(C1)", "second-step last line rounded"}


def test_thm6_chunk_runs_a_set_built_below_its_n_at_its_own_n(monkeypatch):
    # a p = 8 set built at N = 0, C2 off its grid, in a campaign at N = 1:
    # extraction takes sigma at N = 1, as extract_z(x, cs, 1) does, or the
    # failure records, whose texts carry z, differ
    import argred.theorems as theorems
    from argred.constgen import synthetic_set
    from argred.softfp import Fpn, ulp2
    from argred.theorems import _thm6_chunk

    fmt = theorems._sweep_format(8)
    monkeypatch.setitem(theorems.FORMATS, "p8", fmt)
    r = Fpn(1, 143, -7, fmt)
    c2 = Fpn.from_fraction(8 * ulp2(synthetic_set(r).c1), fmt)
    off = _c2_off_grid(synthetic_set)
    monkeypatch.setattr(theorems, "gen_constants", lambda c, f, n, q: off(r, n=0, q=q, c2=c2))
    args = ("pi", "p8", 1, 2, 9, 3000, "even")
    got = _outcome(_thm6_chunk, args)
    assert got == _outcome(_public_chunk, args)
    assert got[0] == 3000 and got[1]


@pytest.mark.parametrize("fault", ["none", "c2_off_grid", "set_below_n", "fast2mult_underflow"])
@pytest.mark.parametrize("ties", ["even", "away"])
def test_thm6_exhaustive_records_match_the_public_stages(monkeypatch, fault, ties):
    import dataclasses

    import argred.theorems as theorems
    from argred.constgen import ConstantSet
    from argred.softfp import Format, Fpn

    real = theorems.synthetic_set
    cfg = CheckConfig(theorem="thm6", mode="exhaustive", p=8, r_step=64, window=6, n_values=(0, 1, 2), ties=ties)
    if fault == "c2_off_grid":
        monkeypatch.setattr(theorems, "synthetic_set", _c2_off_grid(real))
    elif fault == "set_below_n":
        # sets built at N = 0 and run at N = 1, 2
        monkeypatch.setattr(theorems, "synthetic_set", lambda r, n=0, q=2, c2=None: real(r, n=0, q=q, c2=c2))
    elif fault == "fast2mult_underflow":
        # the set of test_thm6_case_records_a_fast2mult_underflow, at each N
        fmt = Format(8, -12, 40)
        forged = ConstantSet(
            None, fmt, 1, 2, Fpn(1, 163, -8, fmt), Fpn(1, 160, -7, fmt), Fpn(1, 129, -12, fmt), Fpn.zero(fmt)
        )
        monkeypatch.setattr(theorems, "_sweep_format", lambda p: fmt)
        monkeypatch.setattr(theorems, "_sweep_rs", lambda fmt, step: [forged.r])
        monkeypatch.setattr(
            theorems, "synthetic_set", lambda r, n=0, q=2, c2=None: dataclasses.replace(forged, n=n)
        )
    got = _outcome(lambda c: (lambda res: (res.cases, res.failures, res.stats))(run_check(c)), cfg)
    assert got == _outcome(_public_thm6_exhaustive, cfg)
    cases, failures, _ = got
    assert cases > 0
    errors = {f["error"].split(":")[0] for f in failures if "error" in f}
    if fault in ("none", "set_below_n"):
        assert failures == []
    elif fault == "c2_off_grid":
        assert "t1 is not a multiple of 2^(-N-1)*ulp2(C1)" in errors
        assert "second-step last line rounded" in errors
    elif fault == "fast2mult_underflow":
        assert "error-free transformation failed" in errors


def _forged_extraction(real):
    """_extract_pairs raising a TheoremViolation for every x whose signed
    significand is 3 mod 7."""
    from argred.reduction import TheoremViolation

    def make(xn, xe, *rest):
        if xn % 7 == 3:
            raise TheoremViolation(f"forged extraction fault: x = {xn} * 2^{xe}")
        return real(xn, xe, *rest)

    return make


def _first_step_one_ulp_up(real):
    """The first step's fma(z, -C1, x) through _fma_pairs one ulp above, so
    flagged inexact, for a z whose canonical signed significand is 2 mod 5:
    the second step then runs on a wrong u.  The ulp is that of u's quantum,
    2^max(e + bits(d) - p, e_min_q), or, for a zero u, of
    max(min(xe, ze + ce), e_min_q) with z's canonical exponent ze; the
    case's scale e drops to it if needed.  (C1 itself one ulp off leaves
    every first step of this window exact: z has at most 5 bits, so
    x - z*C1 still fits 8.)"""
    from argred.softfp import _canonical

    def make(zn, ze, mcn, ce, xn, xe, fmt, ties):
        e, d, un = real(zn, ze, mcn, ce, xn, xe, fmt, ties)
        zn, ze = _canonical(zn, ze, fmt)
        if zn % 5 != 2:
            return e, d, un
        q = max(e + d.bit_length() - fmt.p if d else min(xe, ze + ce), fmt.e_min_q)
        if q < e:
            d, un, e = d << (e - q), un << (e - q), q
        return e, d, un + (1 << (q - e))

    return make


def _miscounting_fast2mult(real):
    """_fast2mult_scaled counting one rounding too many for a z whose
    canonical signed significand is 1 mod 3: the second step then reports
    10 ops."""
    from argred.softfp import _canonical

    def make(zn, ze, cn, ce, e, fmt, ties, counter):
        if _canonical(zn, ze, fmt)[0] % 3 == 1:
            counter.rounded += 1
        return real(zn, ze, cn, ce, e, fmt, ties, counter)

    return make


# sha256 of json.dumps(to_record()) for exhaustive thm6 at p = 8, r_step 64,
# N in {0, 2}, window 4, under each injected fault; pinned before the sweep
# ran z-extraction and the first step once per x for all C2 multiples
THM6_FAILING_DIGESTS = {
    ("extraction", "even"): "a0bf361c726b69a3b0357da69be0017544886783675961ad6b40f223858ae43b",
    ("extraction", "away"): "8795ec88907cf5c350b0cefded8fc340c58b0712fc79ec3e66a3b61a4d512664",
    ("first_step", "even"): "be599c8441ea6b45440e04df4c94ea93b40edff3f1138c1fe84e11b713416304",
    ("first_step", "away"): "6907f9b4cdee4a81a4115875e4b13c135cd69b6204b68411dafadddc30496f10",
    ("ops", "even"): "9bfccdb85bf355c645fd4d71dfcc42afdbbcd75150fc3a1da7a90fdf0ac73bea",
    ("ops", "away"): "d5199aa62c66fc2fab801220abc6c86f156eb978056cf4f1f08f72c4192e6ad6",
}


@pytest.mark.parametrize("fault, ties", list(THM6_FAILING_DIGESTS), ids=lambda v: v)
def test_thm6_exhaustive_failing_records_are_pinned(monkeypatch, fault, ties):
    import hashlib
    import json

    import argred.reduction as reduction
    import argred.theorems as theorems

    if fault == "extraction":
        monkeypatch.setattr(theorems, "_extract_pairs", _forged_extraction(theorems._extract_pairs))
    elif fault == "first_step":
        monkeypatch.setattr(theorems, "_fma_pairs", _first_step_one_ulp_up(theorems._fma_pairs))
    else:
        monkeypatch.setattr(reduction, "_fast2mult_scaled", _miscounting_fast2mult(reduction._fast2mult_scaled))
    cfg = CheckConfig(theorem="thm6", mode="exhaustive", p=8, r_step=64, n_values=(0, 2), window=4, ties=ties)
    res = run_check(cfg)
    assert not res.passed and res.cases > 0
    kinds = {"extraction": {"error"}, "first_step": {"error", "exact_first", "ops"}, "ops": {"exact_first", "ops"}}
    assert {k for f in res.failures for k in f if k in ("error", "exact_first", "ops")} == kinds[fault]
    assert hashlib.sha256(json.dumps(res.to_record()).encode()).hexdigest() == THM6_FAILING_DIGESTS[fault, ties]


# sha256 of json.dumps(to_record()) for randomized thm6 on pi/double, N in
# {0, 10}, 200 trials, seed 1, with the first step one ulp up
# (_first_step_one_ulp_up); pinned before the case ran on one common scale
THM6_RANDOMIZED_FAILING_DIGESTS = {
    "even": "a2c4875d672a0cf865aea5fec4a7672867dd372f19a278eab46796e9424e8923",
    "away": "bfb6d18a2cc07d01df297fea71e6de775a18d0fe0787c1d5dbaa9f8279ae715b",
}


@pytest.mark.parametrize("ties", list(THM6_RANDOMIZED_FAILING_DIGESTS))
def test_thm6_randomized_failing_records_are_pinned(monkeypatch, ties):
    import hashlib
    import json

    import argred.theorems as theorems

    monkeypatch.setattr(theorems, "_fma_pairs", _first_step_one_ulp_up(theorems._fma_pairs))
    cfg = CheckConfig(
        theorem="thm6", mode="randomized", constant="pi", fmt="double", n_values=(0, 10), trials=200, seed=1, ties=ties
    )
    res = run_check(cfg)
    assert res.cases == 400 and len(res.failures) == 57
    assert all(not f["exact_first"] and not f["exact_second"] and f["ops"] == 9 for f in res.failures)
    assert hashlib.sha256(json.dumps(res.to_record()).encode()).hexdigest() == THM6_RANDOMIZED_FAILING_DIGESTS[ties]
