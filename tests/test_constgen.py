"""Constant-set generation, audit, and the table of hypotheses both read."""

import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import argred.constgen as constgen
from argred.softfp import DOUBLE, DOUBLE_EXTENDED, QUAD, SINGLE, TIES_EVEN, Fpn, Format, ulp, ulp2
from argred.realnum import LN2, PI, Constant
from argred.reduction import extract_z
from argred.constgen import (
    HYPOTHESES,
    ConstantSet,
    HypothesisViolation,
    audit,
    format_label,
    format_table,
    gen_constants,
    set_to_record,
    synthetic_set,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "tables.json").read_text())
FORMATS = {
    "single": SINGLE,
    "double": DOUBLE,
    "double-extended": DOUBLE_EXTENDED,
    "quad": QUAD,
}
CONSTANTS = {"pi": PI, "ln2": LN2}


def preset_sets():
    for cname, const in CONSTANTS.items():
        for flabel, fmt in FORMATS.items():
            yield cname, flabel, gen_constants(const, fmt)


def test_tables_bit_exact():
    for cname, flabel, cs in preset_sets():
        want = GOLDEN[cname][flabel]
        assert cs.r.to_text() == want["R"], (cname, flabel)
        assert cs.c1.to_text() == want["C1"], (cname, flabel)
        assert cs.c2.to_text() == want["C2"], (cname, flabel)
        assert cs.c3.to_text() == want["C3"], (cname, flabel)


def test_audit_passes_for_presets():
    for cname, flabel, cs in preset_sets():
        rep = audit(cs)
        assert rep.passed, (cname, flabel, [c.hypothesis for c in rep.failed_checks()])
    rep = audit(gen_constants(LN2, QUAD, n=10))
    assert rep.passed


def test_audit_reads_the_enclosure_generation_built():
    # gen_constants and the "R is nearest(1/C)" entry share the constant's
    # one 3p-bit enclosure; the entry still rounds R from it on its own
    calls = []

    def enclosure(bits):
        calls.append(bits)
        return PI.enclosure(bits)

    pi = Constant("pi", enclosure)
    cs = gen_constants(pi, DOUBLE)
    assert audit(cs).passed and calls == [3 * DOUBLE.p]
    forged = dataclasses.replace(cs, r=cs.r.next_up())
    assert [c.hypothesis for c in audit(forged).failed_checks()] == ["R is nearest(1/C) at p bits"]
    assert calls == [3 * DOUBLE.p]


def test_audit_detects_power_of_two_c1():
    cs = gen_constants(PI, DOUBLE)
    forged = ConstantSet(cs.constant, cs.fmt, cs.n, cs.q, cs.r, Fpn.pow2(0, DOUBLE), cs.c2, cs.c3)
    rep = audit(forged)
    assert not rep.passed
    assert any("power of 2" in c.hypothesis for c in rep.failed_checks())


def test_delta_bound():
    # delta = R*C1 - 1 with |delta| <= 2^(q-p), exactly
    for cname, flabel, cs in preset_sets():
        delta = cs.rc1_minus_1()
        assert abs(delta) <= Fraction(1, 1 << (cs.fmt.p - cs.q)), (cname, flabel)


def test_c1_distance_to_recip_r():
    # |1/R - C1| <= 2^(-e_R - 1 - (p - q)), exactly in rational arithmetic
    for cname, flabel, cs in preset_sets():
        gap = abs(1 / cs.r.value - cs.c1.value)
        assert gap <= Fraction(2) ** (-cs.e_r - 1 - (cs.fmt.p - cs.q)), (cname, flabel)


def test_c1_trailing_bits_zero():
    for cname, flabel, cs in preset_sets():
        assert cs.c1.m % (1 << cs.q) == 0
    cs3 = gen_constants(PI, DOUBLE, q=3)
    assert cs3.c1.m % 8 == 0


def test_c2_on_grid_and_bounded():
    for cname, flabel, cs in preset_sets():
        grid = 8 * ulp2(cs.c1)
        assert (cs.c2.value / grid).denominator == 1, (cname, flabel)
        assert abs(cs.c2.value) <= 4 * ulp(cs.c1), (cname, flabel)
    # double pi concretely: grid is 2^-100 and the significand is divisible by 32
    cs = gen_constants(PI, DOUBLE)
    assert 8 * ulp2(cs.c1) == Fraction(1, 1 << 100)
    assert cs.c2.m % 32 == 0


def test_c_minus_c1_within_4_ulp():
    # the C-distance conclusion, via enclosure upper bounds
    for cname, flabel, cs in preset_sets():
        enc = cs.constant.enclosure(4 * cs.fmt.p)
        worst = max(abs(enc.lo - cs.c1.value), abs(enc.hi - cs.c1.value))
        assert worst <= 4 * ulp(cs.c1), (cname, flabel)


def test_constants_independent_of_n():
    a = gen_constants(PI, DOUBLE, n=0)
    b = gen_constants(PI, DOUBLE, n=10)
    assert (a.r, a.c1, a.c2, a.c3) == (b.r, b.c1, b.c2, b.c3)


def test_generation_rejects_bad_parameters():
    with pytest.raises(HypothesisViolation):
        gen_constants(PI, DOUBLE, q=1)
    with pytest.raises(HypothesisViolation):
        gen_constants(PI, DOUBLE, q=DOUBLE.p - 1)
    with pytest.raises(HypothesisViolation):
        gen_constants(PI, DOUBLE, n=-DOUBLE.e_min_q + 1)  # 2^-N below the quantum


def test_generation_rejects_underflow_bound():
    # a format so shallow that C1 ~ 2 violates the second-step bound
    shallow = Format(p=8, e_min_q=-10, e_max=40)
    r = Fpn(1, 0b10100011, -8, shallow)  # R ~ 0.637
    with pytest.raises(HypothesisViolation) as err:
        synthetic_set(r, n=2)
    assert "lambda" in str(err.value)
    # with C1 >= 2^p (R below 2^-p) the second-step bound no longer implies
    # that 2^-N is normal, which generation requires as audit does
    deep = Format(p=8, e_min_q=-40, e_max=96)
    r = Fpn(1, 0b10100011, -19, deep)
    assert audit(synthetic_set(r, n=33)).passed
    with pytest.raises(HypothesisViolation, match="2\\^-N is a normal p-bit FPN"):
        synthetic_set(r, n=34)


def test_synthetic_set_and_custom_c2():
    fmt = Format(p=8, e_min_q=-40, e_max=40)
    r = Fpn(1, 0b10100011, -8, fmt)
    cs = synthetic_set(r, n=1)
    assert cs.c_id == "synthetic"
    assert cs.c2.is_zero() and cs.c3.is_zero()
    grid = 8 * ulp2(cs.c1)
    cs2 = synthetic_set(r, n=1, c2=Fpn.from_fraction(3 * grid, fmt))
    assert cs2.c2.value == 3 * grid
    with pytest.raises(HypothesisViolation):
        synthetic_set(r, n=1, c2=Fpn.from_fraction(grid / 2, fmt))


def test_q3_set_is_valid():
    cs = gen_constants(PI, DOUBLE, q=3)
    rep = audit(cs)
    assert rep.passed  # q=2-only theorems are n/a, the general-q ones hold
    applicable = [c for c in rep.checks if c.applicable]
    assert all(c.holds for c in applicable if c.required)


def test_rendering():
    sets = [gen_constants(PI, fmt) for fmt in FORMATS.values()]
    table = format_table(sets)
    assert "5734161139222659 * 2^-54" in table
    assert table.splitlines()[0].startswith("Precision")
    rec = set_to_record(sets[1])
    assert rec == {
        "constant": "pi",
        "precision": "double",
        "N": 0,
        "q": 2,
        "R": "5734161139222659 * 2^-54",
        "C1": "7074237752028440 * 2^-51",
        "C2": "4967757600021504 * 2^-105",
        "C3": "7744522442262976 * 2^-155",
    }
    assert format_label(Format(p=8, e_min_q=-40, e_max=40)) == "p8"
    # a preset's name needs the whole format, e_max included
    assert format_label(Format(p=53, e_min_q=-1074)) == "p53"
    assert format_label(Format(p=53, e_min_q=-1074, e_max=1023)) == "double"


def test_audit_catches_a_c1_the_kernel_rounded_wrong(monkeypatch):
    # generation rounds C1 with the kernel and audit asks the oracle, so a
    # kernel C1 one unit off at p - 2 bits fails both C1 entries; the step
    # goes toward C, which keeps |C2| <= 4 ulp(C1) and generation passing
    good = gen_constants(PI, DOUBLE)
    step = 4 if PI.enclosure(200).lo > good.c1.value else -4
    kernel = constgen.round_nearest

    def one_unit_off(v, fmt, target_p=None, ties=TIES_EVEN):
        c1 = kernel(v, fmt, target_p, ties)
        return Fpn.from_fraction(c1.value + step * ulp(c1), fmt)

    monkeypatch.setattr(constgen, "round_nearest", one_unit_off)
    bad = gen_constants(PI, DOUBLE)
    assert bad.c1.value == good.c1.value + step * ulp(good.c1)
    assert [c.hypothesis for c in audit(bad).failed_checks()] == [
        "C1 is nearest(1/R) at p-q bits",
        "C1 is nearest(1/R) at p-2 bits",
    ]
    assert audit(good).passed


def test_bound_entries_agree_with_the_inequality_they_cite():
    # the Fraction inequality C1 >= 2^k * lambda, k read from the entry's
    # own text, is the oracle for its integer predicate and its exponent
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    cited = re.compile(r"C1 >= 2\^\((.+)\) \* lambda")
    bounds = [h for h in HYPOTHESES if cited.fullmatch(h.text)]
    assert len(bounds) == 4 and bounds == [h for h in HYPOTHESES if h.k is not None]

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(
        p=st.integers(4, 120),
        e_min_q=st.integers(-20000, -1),
        n=st.integers(-5, 300),
        q=st.integers(1, 120),
        m=st.integers(0, (1 << 120) - 1),
        sign=st.sampled_from((1, -1)),
        shift=st.integers(-3, 3),
    )
    def agree(p, e_min_q, n, q, m, sign, shift):
        fmt = Format(p=p, e_min_q=e_min_q, e_max=e_min_q + 40000)
        for h in bounds:
            k = eval(cited.fullmatch(h.text).group(1), {"max": max}, {"p": p, "q": q, "N": n})
            assert h.k(p, n, q) == k
            # C1 within a few binades of the bound, where the sides can differ
            c1 = Fpn(sign, m % (1 << p), max(e_min_q, e_min_q + k - (p - 1) + shift), fmt)
            cs = ConstantSet(None, fmt, n, q, None, c1, None, None)
            assert h.holds(cs, n) == (c1.value >= Fraction(2) ** k * fmt.lam), (h.text, c1)

    agree()


def test_extract_z_refuses_above_the_set_n_exactly_when_generation_does():
    # extract_z asks the N-dependent entries of a set built at N = 0;
    # generation at N asks every entry, and the others do not depend on N.
    # At e_min_q = -24 the largest N a set takes falls inside 0..20 (at
    # -10 no set passes the second-step bound even at N = 0), and R from
    # the smallest normal up reaches C1 >= 2^p, where 2^-N normal binds.
    shallow = Format(p=8, e_min_q=-24, e_max=40)
    x = Fpn.zero(shallow)
    seen = set()
    for e in range(shallow.e_min_q, 33):
        for m in range(1 << 7, 1 << 8):
            r = Fpn(1, m, e, shallow)
            try:
                base = synthetic_set(r, n=0)
            except HypothesisViolation:
                continue
            for n in range(21):
                try:
                    synthetic_set(r, n=n)
                    built = True
                except HypothesisViolation:
                    built = False
                try:
                    extract_z(x, base, n)
                    extracted = True
                except HypothesisViolation:
                    extracted = False
                assert extracted == built, (r, n)
                seen.add((e, built))
    assert {built for _, built in seen} == {True, False}
