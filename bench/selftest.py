"""Self-test: the benchmark's checks are not vacuous.

    python3 bench/selftest.py

Feeds real argred outputs to the checks in checks.py (they must pass),
then the same outputs with one value perturbed: v2, w or C1 moved by one
unit in the last place, or a case count off by one.  Every perturbed
output must be reported as a failure.  Exits 1 if any is missed.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

from harness import ROOT

sys.path.insert(0, str(ROOT / "src"))

from argred import DOUBLE, OpCounter, extract_z, first_step, gen_constants, reduce, second_step  # noqa: E402
from argred.realnum import PI  # noqa: E402
from argred.theorems import CheckConfig, run_check  # noqa: E402

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402
from harness import Tally  # noqa: E402


def ulp(v: Fraction, p: int) -> Fraction:
    return Fraction(2) ** (ck.floor_log2(abs(v)) - p + 1) if v else Fraction(2) ** DOUBLE.e_min_q


def main() -> int:
    oracle = ck.load_oracle(ROOT)
    table = oracle.tables["pi"]["double"]
    c_iv = oracle.consts["pi"]
    p = DOUBLE.p
    cs = gen_constants(PI, DOUBLE)
    results = []

    def expect(label: str, failures: list[str], should_fail: bool) -> None:
        ok = bool(failures) == should_fail
        results.append(ok)
        print(f"{'ok  ' if ok else 'MISS'} {label}: {failures[0] if failures else 'pass'}")

    # x = 10 and an x nearest 7*pi (cancellation), both through reduce
    x7 = ck.nearest(7 * sum(c_iv) / 2, p)
    for x, z_want in ((Fraction(10), None), (x7, Fraction(7))):
        out = wl.reduction_values(reduce(wl.fpn(x, DOUBLE), cs, measure_residual=True))
        expect(f"reduce x={float(x):.6g}", ck.reduce_failures(x, 0, p, table, c_iv, out, z_want), False)
        for key in ("v2", "w"):
            bad = dict(out, **{key: out[key] + ulp(out[key], p)})
            expect(f"  {key} + 1 ulp", ck.reduce_failures(x, 0, p, table, c_iv, bad, z_want), True)
        bad_table = dict(table, C1=table["C1"] + ulp(table["C1"], p))
        expect("  C1 + 1 ulp", ck.reduce_failures(x, 0, p, bad_table, c_iv, out, z_want), True)

    # the stage checks on a campaign-like case
    xf = wl.fpn(x7, DOUBLE)
    z, _ = extract_z(xf, cs)
    u, _ = first_step(xf, z, cs)
    ss = second_step(xf, z, u, cs, counter=OpCounter())
    args = (x7, ck.val(z), 0, table["R"], table["C1"], table["C2"])
    good = dict(u=ck.val(u), v1=ck.val(ss.v1), v2=ck.val(ss.v2), ops=ss.ops, p=p)
    expect("second step", ck.stage_failures(*args, **good), False)
    expect("  v2 + 1 ulp", ck.stage_failures(*args, **dict(good, v2=good["v2"] + ulp(good["v2"], p))), True)
    expect("  10 ops", ck.stage_failures(*args, **dict(good, ops=10)), True)

    # the published tables and `constants --all`
    recs = json.loads(wl.run_cli(["constants", "--all", "--json"]))
    expect("constants --all", ck.constants_json_failures(recs, oracle), False)
    bad = copy.deepcopy(recs)
    c1 = ck.parse_text(bad[0]["C1"])
    bad[0]["C1"] = ck.to_text(c1 + ulp(c1, ck.PRESET_P[bad[0]["precision"]]))
    expect("  one C1 + 1 ulp", ck.constants_json_failures(bad, oracle), True)
    expect("  a record missing", ck.constants_json_failures(recs[1:], oracle), True)

    # campaign records: counts and jobs=1 / jobs=2 agreement
    cfg = dict(theorem="thm6", mode="randomized", n_values=(0, 10), trials=300, seed=5)
    r1 = run_check(CheckConfig(jobs=1, **cfg)).to_record()
    r2 = run_check(CheckConfig(jobs=2, **cfg)).to_record()
    expect("thm6 campaign", ck.campaign_failures(r2, 600, 2, other=r1), False)
    expect("  cases + 1", ck.campaign_failures(dict(r2, cases=601), 600, 2, other=r1), True)
    expect("  jobs=2 lost a failure", ck.campaign_failures(r2, 600, 2, other=dict(r1, failures=[{"x": "1 * 2^0"}])), True)

    # sweep record: closed-form counts, and the representability test
    sweep = wl.Sweep(1, oracle, Tally())
    rec = run_check(CheckConfig(
        theorem="correct3", p=wl.SWEEP_P, r_step=wl.R_STEP, n_values=wl.SWEEP_N, window=wl.SWEEP_WINDOW,
    )).to_record()
    want = (len(sweep.rs), len(sweep.rs) - len(sweep.usable), sweep.x_values, len(wl.SWEEP_N), sweep.in_range)
    expect("correct3 sweep", ck.sweep_failures(rec, wl.SWEEP_P, *want), False)
    bad = copy.deepcopy(rec)
    bad["stats"]["candidates"] += 1
    expect("  candidates + 1", ck.sweep_failures(bad, wl.SWEEP_P, *want), True)
    expect("  cases + 1", ck.sweep_failures(dict(rec, cases=rec["cases"] + 1), wl.SWEEP_P, *want), True)
    expect("  own bit test rejects 257/4 at 8 bits", ["accepted"] if ck.fits(Fraction(257, 4), 8, -40) else [], False)
    expect("  own bit test accepts 255/4 at 8 bits", [] if ck.fits(Fraction(255, 4), 8, -40) else ["rejected"], False)

    missed = results.count(False)
    print(f"{len(results) - missed}/{len(results)} as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
