"""Constant-set generation, audit, and the one-ulp R adjustment."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from argred.softfp import DOUBLE, DOUBLE_EXTENDED, QUAD, SINGLE, Fpn, Format, ulp, ulp2
from argred.realnum import LN2, PI
from argred.constgen import (
    ConstantSet,
    HypothesisViolation,
    adjust_r_for_rc1_le_1,
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


def test_adjust_r_for_rc1_le_1():
    for cname, const in CONSTANTS.items():
        for flabel, fmt in FORMATS.items():
            cs = gen_constants(const, fmt)
            adjusted, moved = adjust_r_for_rc1_le_1(cs)
            assert adjusted.r.value * adjusted.c1.value <= 1, (cname, flabel)
            assert abs(moved) <= 8
            if cs.rc1_minus_1() <= 0:
                assert moved == 0 and adjusted.r == cs.r
            else:
                assert moved != 0
            # moving R can only invalidate the R = nearest(1/C) hypothesis
            failed = audit(adjusted).failed_checks()
            assert all(c.theorem == "c1-distance" for c in failed), (cname, flabel, failed)
            if moved == 0:
                assert not failed


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
