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


def test_thm7_presets():
    res = check_thm7(CheckConfig(theorem="thm7"))
    assert res.passed and res.cases == 8


def test_eft_small():
    res = check_eft(CheckConfig(theorem="eft", trials=20000, seed=3))
    assert res.passed and res.cases == 20000


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
        num, e0 = _x_minus_zc1(x, z, c1.sign * c1.m, c1.e)
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

    # another caller's equal but separately built Format fills the sigma
    # memo first; the sweep must still get a sigma of its own format
    monkeypatch.setattr(reduction, "_SIGMA", {})
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

    for name in ("_sweep_format", "_sweep_xs", "_sweep_rs", "synthetic_set", "extract_z", "_run_second_step_case"):
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
    fmt, xs, rs = _sweep_space(cfg, 1)
    assert len(xs) * len(rs) * 3 <= EXHAUSTIVE_CAP < len(xs) * len(rs) * 3 * 8
    with pytest.raises(ValueError, match="exceeds the exhaustive cap"):
        _sweep_space(cfg, 8)


def test_thm3_records_a_small_z_off_the_grid(monkeypatch):
    # z*2^N must be an integer for every z, below the theorem's range too:
    # move z = +-2^-N (ell = 1) one ulp off the 2^-N grid
    import argred.reduction as reduction
    from argred.softfp import Fpn, OpResult

    real_sub = reduction.sub

    def off_grid(a, b, ties="even", counter=None):
        out = real_sub(a, b, ties, counter)
        z = out.value
        # b is sigma = 3 * 2^(p-N-2), stored with e = -N
        if z.m == 1 << (z.fmt.p - 1) and z.e == b.e - (z.fmt.p - 1):
            return OpResult(Fpn(z.sign, z.m + 1, z.e, z.fmt), False)
        return out

    monkeypatch.setattr(reduction, "sub", off_grid)
    res = check_thm3(CheckConfig(theorem="thm3", p=8, r_step=64))
    assert not res.passed and res.failures
    assert all("z*2^N is not an integer" in f["error"] for f in res.failures)


def test_a_check_that_ran_no_case_does_not_pass():
    assert not CheckResult("thm3", {}, 0).passed
    assert CheckResult("thm3", {}, 1).passed
    assert not CheckResult("thm3", {}, 1, [{"x": 1}]).passed
