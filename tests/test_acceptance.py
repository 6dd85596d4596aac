"""Acceptance gate: one test per criterion, at the stated tolerance.

Each criterion prints a single PASS/FAIL line (visible with pytest -s or
in failure output).  Tolerances are exact everywhere: bit-exact table
match, zero failures in exhaustive sweeps, exact rational equalities in
the randomized campaigns.  Criterion 10 re-runs the exhaustive and
randomized criteria under ties-away rounding.
"""

import json
import os
import time
from pathlib import Path

import pytest

from argred.cli import main
from argred.theorems import (
    CheckConfig,
    check_correct3,
    check_eft,
    check_sterbenz,
    check_sterbenz_approx2,
    check_thm6,
    check_thm7,
)

pytestmark = pytest.mark.slow

GOLDEN = json.loads((Path(__file__).parent / "golden" / "tables.json").read_text())
JOBS = max(1, min(2, os.cpu_count() or 1))

THM6_TRIALS = 1_000_000
EFT_TRIALS = 1_000_000


def report(n: int, ok: bool, dt: float, desc: str) -> None:
    print(f"ACCEPTANCE criterion {n}: {'PASS' if ok else 'FAIL'} ({dt:.1f}s) - {desc}")


def _run_cli_json(*argv) -> tuple[int, object]:
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def test_criterion_01_table_reproduction():
    t0 = time.time()
    code, records = _run_cli_json("constants", "--all", "--json")
    ok = code == 0 and len(records) == 8
    checked = 0
    for rec in records:
        want = GOLDEN[rec["constant"]][rec["precision"]]
        for key in ("R", "C1", "C2", "C3"):
            checked += 1
            ok = ok and rec[key] == want[key]
    dt = time.time() - t0
    ok = ok and checked == 32 and dt < 5.0
    report(1, ok, dt, "all 32 table entries bit-exact via `constants --all`")
    assert ok


def test_criterion_02_thm7_exact():
    t0 = time.time()
    res = check_thm7(CheckConfig(theorem="thm7"))
    dt = time.time() - t0
    ok = res.passed and res.cases == 8 and dt < 1.0
    report(2, ok, dt, "|C - C1| <= 4 ulp(C1) for all 8 preset sets (exact)")
    assert ok


def _sterbenz_all(ties: str) -> tuple[bool, int]:
    ok = True
    cases = 0
    for beta in (2, 3):
        for p in (2, 3, 4, 5):
            res = check_sterbenz(CheckConfig(theorem="sterbenz", beta=beta, p=p, window=8, ties=ties))
            ok = ok and res.passed
            cases += res.cases
    return ok, cases


def test_criterion_03_sterbenz_exhaustive():
    t0 = time.time()
    ok, cases = _sterbenz_all("even")
    dt = time.time() - t0
    ok = ok and dt < 60.0
    report(3, ok, dt, f"Sterbenz exhaustive, beta in {{2,3}}, p in 2..5 ({cases} cases)")
    assert ok


def _sterbenz2_all(ties: str) -> tuple[bool, int]:
    ok = True
    cases = 0
    for p1 in range(2, 7):
        for p2 in range(2, 7):
            res = check_sterbenz_approx2(
                CheckConfig(theorem="sterbenz2", beta=2, p1=p1, p2=p2, window=8, ties=ties)
            )
            ok = ok and res.passed
            cases += res.cases
    for p1 in (2, 3):
        for p2 in (2, 3):
            res = check_sterbenz_approx2(
                CheckConfig(theorem="sterbenz2", beta=3, p1=p1, p2=p2, window=8, ties=ties)
            )
            ok = ok and res.passed
            cases += res.cases
    return ok, cases


def test_criterion_04_sterbenz2_exhaustive():
    t0 = time.time()
    ok, cases = _sterbenz2_all("even")
    dt = time.time() - t0
    ok = ok and dt < 300.0
    report(4, ok, dt, f"subtraction-across-precisions exhaustive incl. p2 > p1 ({cases} cases)")
    assert ok


def _correct3_full(ties: str):
    return check_correct3(
        CheckConfig(theorem="correct3", p=8, r_step=1, n_values=(0, 1, 2), window=12, ties=ties, jobs=JOBS)
    )


def test_criterion_05_thm3_thm5_exhaustive_p8():
    t0 = time.time()
    res = _correct3_full("even")
    dt = time.time() - t0
    # documented candidate space: every R over two binades whose C1 is
    # not a power of two, all x over 12 binades both signs, N in {0,1,2}
    usable_r = res.stats["r_values"] - res.stats["skipped_r"]
    expected_candidates = usable_r * res.stats["x_values"] * 3
    ok = (
        res.passed
        and res.stats["candidates"] == expected_candidates
        and res.stats["r_values"] == 256
        and res.stats["ell_values"] == [2, 3, 4, 5, 6]
        and dt < 600.0
    )
    report(5, ok, dt, f"z-extraction + first-step exhaustive at p=8 ({res.cases} in-range cases)")
    assert ok


@pytest.fixture(scope="module")
def thm6_even_campaigns():
    results = {}
    for const in ("pi", "ln2"):
        for n in (0, 5, 10):
            t0 = time.time()
            res = check_thm6(
                CheckConfig(
                    theorem="thm6", mode="randomized", constant=const, fmt="double",
                    n_values=(n,), trials=THM6_TRIALS, seed=20240817, jobs=JOBS,
                )
            )
            results[(const, n, "even")] = (res, time.time() - t0)
    return results


def test_criterion_06_thm6_randomized(thm6_even_campaigns):
    ok = True
    total_dt = 0.0
    for (const, n, _), (res, dt) in thm6_even_campaigns.items():
        ok = ok and res.passed and res.cases == THM6_TRIALS and dt < 120.0
        total_dt += dt
    report(6, ok, total_dt, f"second-step equality, 6 campaigns x {THM6_TRIALS} random x")
    assert ok


def test_criterion_07_flop_count(thm6_even_campaigns):
    t0 = time.time()
    ok = all(res.stats["ops_always_9"] and res.passed for res, _ in thm6_even_campaigns.values())
    # belt and braces: a direct instrumented run
    from argred.constgen import gen_constants
    from argred.realnum import PI
    from argred.reduction import reduce
    from argred.softfp import DOUBLE, Fpn

    cs = gen_constants(PI, DOUBLE)
    for k in range(3, 300):
        out = reduce(Fpn.from_int(k, DOUBLE), cs, measure_residual=False)
        ok = ok and out.rounding_ops_second == 9
    dt = time.time() - t0
    report(7, ok, dt, "second step always counts exactly 9 rounded operations")
    assert ok


def test_criterion_08_eft_campaign():
    t0 = time.time()
    res = check_eft(CheckConfig(theorem="eft", trials=EFT_TRIALS, seed=1234, jobs=JOBS))
    dt = time.time() - t0
    ok = res.passed and res.cases == EFT_TRIALS and dt < 30.0
    report(8, ok, dt, f"{EFT_TRIALS} Fast2Sum/Fast2Mult calls recompose exactly")
    assert ok


def test_criterion_09_codywaite_demo():
    t0 = time.time()
    code, rec = _run_cli_json("demo-codywaite", "--json")
    dt = time.time() - t0
    ok = (
        code == 0
        and rec["two_round_product_inexact"] is True
        and rec["fma_exact"] is True
        and rec["two_round_error_vs_x_zC1full"] != "0"
        and dt < 60.0
    )
    report(9, ok, dt, "found a double case: two-rounding step inexact, fma step exact")
    assert ok


def test_criterion_10_ties_away_rerun():
    t0 = time.time()
    ok3, _ = _sterbenz_all("away")
    ok4, _ = _sterbenz2_all("away")
    res5 = _correct3_full("away")
    ok6 = True
    for const in ("pi", "ln2"):
        for n in (0, 5, 10):
            res = check_thm6(
                CheckConfig(
                    theorem="thm6", mode="randomized", constant=const, fmt="double",
                    n_values=(n,), trials=THM6_TRIALS, seed=20240817, ties="away", jobs=JOBS,
                )
            )
            ok6 = ok6 and res.passed and res.stats["ops_always_9"]
    dt = time.time() - t0
    ok = ok3 and ok4 and res5.passed and ok6
    report(10, ok, dt, "criteria 3-6 hold identically under ties-away rounding")
    assert ok
