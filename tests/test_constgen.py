"""Constant-set generation, audit, and the table of hypotheses both read."""

import dataclasses
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import argred.constgen as constgen
from argred.softfp import DOUBLE, DOUBLE_EXTENDED, QUAD, SINGLE, TIES_EVEN, Fpn, Format, round_nearest, ulp, ulp2
from argred.softfp import ulp2_exp
from argred.realnum import (
    LN2,
    PI,
    AmbiguousRoundingError,
    Constant,
    RealEnclosure,
    _int_nearest,
    _refined,
    pi_enclosure,
    safe_round,
)
from argred.reduction import extract_z
from argred.constgen import (
    HYPOTHESES,
    ConstantSet,
    HypothesisViolation,
    audit,
    format_label,
    format_table,
    gen_constants,
    recip_ratio,
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
    kernel = constgen._round_ratio

    def one_unit_off(num, den, digits, fmt, ties):
        got = kernel(num, den, digits, fmt, ties)
        if (num, den) != recip_ratio(good.r):
            return got  # R and C3
        return Fpn.from_fraction(got.value + step * ulp(got), fmt)

    monkeypatch.setattr(constgen, "_round_ratio", one_unit_off)
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


# ---------------------------------------------------------------------------
# generation on the scaled integer enclosure against the Fraction route
# ---------------------------------------------------------------------------


def round_to_int(enc):
    """The enclosed value rounded to an integer, ties to even, refined
    across ties (test_realnum tests the same reference)."""
    return _refined(enc, lambda v: _int_nearest(v.numerator, v.denominator, TIES_EVEN))


def _fraction_route(constant, fmt, n, q):
    """The set built from RealEnclosure transforms, safe_round and
    round_to_int, with the same hypothesis checks at the same points."""
    enc = constant.enclosure(3 * fmt.p)
    r = safe_round(enc.recip(), fmt)
    constgen._require(ConstantSet(constant, fmt, n, q, r, None, None, None), constgen.PARAMS)
    c1 = round_nearest(Fraction(*recip_ratio(r)), fmt, fmt.p - q)
    k8 = 3 + ulp2_exp(c1)
    k2 = round_to_int(enc.shift(c1.value).scale2(-k8))
    try:
        c2 = Fpn.from_fraction(Fraction(k2) * Fraction(2) ** k8, fmt)
    except (ValueError, OverflowError):
        c2 = None
    constgen._require(ConstantSet(constant, fmt, n, q, r, c1, c2, None), constgen.TERMS)
    c3 = safe_round(enc.shift(c1.value + c2.value), fmt, fmt.p - q)
    return ConstantSet(constant, fmt, n, q, r, c1, c2, c3)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # the type and the message must agree too
        return type(exc), str(exc)


def _assert_same(constant, fmt, n, q):
    want = _outcome(_fraction_route, constant, fmt, n, q)
    assert _outcome(gen_constants, constant, fmt, n, q) == want, (constant.name, fmt, n, q)
    return want


def test_generation_matches_the_fraction_route_on_the_presets():
    failed = set()
    for const in CONSTANTS.values():
        for fmt in FORMATS.values():
            for n in range(13):
                for q in (2, 3, 4):
                    if not isinstance(_assert_same(const, fmt, n, q), ConstantSet):
                        failed.add(q)
    assert failed == {4}  # q = 4 takes C2 past 4 ulp(C1) for some sets


def test_generation_matches_the_fraction_route_on_small_formats():
    # most of these sets fail a hypothesis: the violation's type and text
    # must be the same on both routes
    kinds = set()
    for p in range(5, 40):
        for e_min_q in (-24, -60, -300):
            fmt = Format(p=p, e_min_q=e_min_q, e_max=64)
            for const in CONSTANTS.values():
                for n in (0, 3, 9):
                    for q in (2, 3):
                        got = _assert_same(const, fmt, n, q)
                        kinds.add(got[0] if isinstance(got, tuple) else ConstantSet)
    assert kinds == {ConstantSet, HypothesisViolation}


def test_generation_refines_like_safe_round():
    # an enclosure eight times wider than asked for: at 3p bits R, C2 and
    # C3 are each ambiguous, and both routes ask for 2x the bits in turn
    calls = []

    def coarse(bits):
        calls.append(bits)
        enc = pi_enclosure(max(1, bits // 8))
        return RealEnclosure(enc.lo, enc.hi, bits, coarse)

    for fmt in (SINGLE, DOUBLE, QUAD):
        calls.clear()
        want = _fraction_route(Constant("pi", coarse), fmt, 0, 2)
        asked = set(calls)
        calls.clear()
        assert gen_constants(Constant("pi", coarse), fmt, 0, 2) == want
        assert set(calls) == asked and max(asked) >= 8 * 3 * fmt.p
        pi = gen_constants(PI, fmt)
        assert (want.r, want.c1, want.c2, want.c3) == (pi.r, pi.c1, pi.c2, pi.c3)


def test_generation_without_refine_fails_like_safe_round():
    # fixed enclosures (a JSON file's) too wide for R, for C2 and for C3 at
    # double: none can be refined, so both routes raise the same
    # AmbiguousRoundingError, with the width of the quantity rounded
    fine = pi_enclosure(400)
    messages = set()
    for width_bits in (2, 60, 130):
        lo = Fraction(fine.lo.numerator >> (400 - width_bits), 1 << width_bits)
        enc = RealEnclosure(lo, lo + Fraction(1, 1 << width_bits), width_bits, None)
        kind, message = _assert_same(Constant.from_enclosure("wide", enc), DOUBLE, 0, 2)
        assert kind is AmbiguousRoundingError and message.startswith("enclosure of width ")
        messages.add(message)
    assert len(messages) == 3
    # a bound at or below zero has no reciprocal
    zero = Constant.from_enclosure("zero", RealEnclosure(Fraction(0), Fraction(1), 8, None))
    assert _assert_same(zero, DOUBLE, 0, 2) == (ValueError, "reciprocal needs a positive enclosure")
    # 1/C past the range at both bounds: the error names 1/hi, rounded first
    tiny = RealEnclosure(Fraction(1, 1 << 1100), Fraction(1025, 1 << 1110), 8, None)
    with pytest.raises(OverflowError) as first:
        round_nearest(1 / tiny.hi, DOUBLE)
    assert _assert_same(Constant.from_enclosure("tiny", tiny), DOUBLE, 0, 2) == (OverflowError, str(first.value))
    # an exact constant whose C2 multiple k2 is a tie, k + 1/2: both round
    # it to the even k
    cs = gen_constants(PI, DOUBLE)
    k8 = 3 + ulp2_exp(cs.c1)
    for k, even in ((4, 4), (5, 6)):
        c = cs.c1.value + Fraction(2 * k + 1, 2) * Fraction(2) ** k8
        tie = _assert_same(Constant.from_enclosure("tie", RealEnclosure(c, c, 8, None)), DOUBLE, 0, 2)
        assert tie.c1 == cs.c1 and tie.c2.value == even * Fraction(2) ** k8


def test_generation_on_a_non_dyadic_enclosure():
    # bounds over 3^250 and 5^200: the scaled enclosure's lcm denominator
    # is not a power of two
    fine = pi_enclosure(700)
    lo = Fraction(fine.lo.numerator * 3**250 // fine.lo.denominator, 3**250)
    hi = Fraction(-(-fine.hi.numerator * 5**200 // fine.hi.denominator), 5**200)
    const = Constant.from_enclosure("pi", RealEnclosure(lo, hi, 390, None))
    den = const.scaled_enclosure(3 * QUAD.p)[2]
    assert den % 15 == 0 and den & (den - 1)
    for fmt in FORMATS.values():
        for q in (2, 3):
            assert _assert_same(const, fmt, 2, q) == gen_constants(PI, fmt, 2, q)
