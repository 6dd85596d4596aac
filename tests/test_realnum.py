"""Enclosure and exact-rounding tests.

The enclosures are self-validating: a 2x finer enclosure must sit inside
a coarser one, so no published digit table appears here beyond a short
bracketing literal for the leading digits.
"""

import random
from fractions import Fraction

import pytest

from argred.softfp import DOUBLE, SINGLE, TIES_AWAY, TIES_EVEN, round_nearest
from argred.realnum import (
    LN2,
    PI,
    AmbiguousRoundingError,
    Constant,
    RealEnclosure,
    _int_nearest,
    _refined,
    ln2_enclosure,
    pi_enclosure,
    round_rational,
    safe_round,
)


def round_to_int(enc, ties=TIES_EVEN):
    """The enclosed value rounded to an integer, refined across ties: the
    Fraction-route reference for C2's multiple (test_constgen has one too)."""
    return _refined(enc, lambda v: _int_nearest(v.numerator, v.denominator, ties))


def test_known_leading_digits():
    e = pi_enclosure(40)
    assert Fraction("3.14159") < e.lo and e.hi < Fraction("3.14160")
    l = ln2_enclosure(40)
    assert Fraction("0.693147") < l.lo and l.hi < Fraction("0.693148")


def test_width_bound():
    for bits in (32, 64, 128, 256, 400):
        assert pi_enclosure(bits).width <= Fraction(1, 1 << bits)
        assert ln2_enclosure(bits).width <= Fraction(1, 1 << bits)


def test_monotone_refinement():
    for gen in (pi_enclosure, ln2_enclosure):
        for bits in (24, 50, 120):
            coarse = gen(bits)
            fine = gen(2 * bits)
            assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
            mid = (fine.lo + fine.hi) / 2
            assert coarse.contains(mid)


def test_self_validation_at_thousand_digit_scale():
    # no external digit table: the series' own error bounds validate each
    # other, here at ~1000 decimal digits (3400 bits)
    for gen in (pi_enclosure, ln2_enclosure):
        coarse = gen(3400)
        fine = gen(6800)
        assert coarse.width <= Fraction(1, 1 << 3400)
        assert coarse.lo <= (fine.lo + fine.hi) / 2 <= coarse.hi
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_safe_round_paper_values():
    assert safe_round(pi_enclosure(200).recip(), DOUBLE).to_text() == "5734161139222659 * 2^-54"
    assert safe_round(pi_enclosure(80), SINGLE, 24).to_text() == "13176795 * 2^-22"
    assert safe_round(ln2_enclosure(200).recip(), DOUBLE).to_text() == "6497320848556798 * 2^-52"
    # 22-bit rounding of pi itself coincides with the single-precision C1
    assert safe_round(pi_enclosure(80), SINGLE, 22).to_text() == "13176796 * 2^-22"


def test_safe_round_stable_under_refinement():
    for gen in (pi_enclosure, ln2_enclosure):
        for bits in (70, 140):
            a = safe_round(gen(bits), DOUBLE)
            b = safe_round(gen(bits + 64), DOUBLE)
            assert a == b


def test_safe_round_exact_dyadic():
    v = Fraction(13, 8)
    enc = RealEnclosure(v, v, bits=60, refine=None)
    assert safe_round(enc, DOUBLE).value == v


def test_safe_round_ambiguous_without_refine():
    enc = RealEnclosure(Fraction(1), Fraction(1) + Fraction(1, 8), bits=3, refine=None)
    with pytest.raises(AmbiguousRoundingError):
        safe_round(enc, DOUBLE)


def test_scaled_constants():
    # rounding commutes with exact power-of-two scaling: R(2pi) == R(pi)/2
    two_pi = safe_round(pi_enclosure(200).scale2(1).recip(), DOUBLE)
    pi_rec = safe_round(pi_enclosure(200).recip(), DOUBLE)
    assert two_pi.value * 2 == pi_rec.value
    half_pi = safe_round(pi_enclosure(200).scale2(-1), DOUBLE)
    assert half_pi.value == safe_round(pi_enclosure(200), DOUBLE).value / 2


def test_round_to_int():
    enc = RealEnclosure(Fraction(5, 2), Fraction(5, 2), bits=10, refine=None)
    assert round_to_int(enc) == 2  # tie to even
    assert round_to_int(enc, ties=TIES_AWAY) == 3
    enc_neg = RealEnclosure(Fraction(-5, 2), Fraction(-5, 2), bits=10, refine=None)
    assert round_to_int(enc_neg) == -2
    assert round_to_int(enc_neg, ties=TIES_AWAY) == -3
    near = RealEnclosure(Fraction(41, 10), Fraction(42, 10), bits=10, refine=None)
    assert round_to_int(near) == 4


def test_round_rational_spec_values():
    assert round_rational(1, 3, DOUBLE, 53).to_text() == "6004799503160661 * 2^-54"
    for k in (-37, -1, 0, 1, 9999):
        assert round_rational(k, 1, DOUBLE).value == k
    with pytest.raises(ZeroDivisionError):
        round_rational(1, 0, DOUBLE)


def test_round_rational_agrees_with_kernel_rounding():
    # two independent decision procedures, 10^5 random rationals
    rng = random.Random(424242)
    for _ in range(100_000):
        num = rng.randrange(-(1 << 60), 1 << 60)
        den = rng.randrange(1, 1 << 40)
        a = round_rational(num, den, DOUBLE)
        b = round_nearest(Fraction(num, den), DOUBLE)
        assert a == b, (num, den)
    for _ in range(5000):
        num = rng.randrange(-(1 << 60), 1 << 60)
        den = rng.randrange(1, 1 << 40)
        a = round_rational(num, den, DOUBLE, 51, ties=TIES_AWAY)
        b = round_nearest(Fraction(num, den), DOUBLE, 51, ties=TIES_AWAY)
        assert a == b, (num, den)
    for fmt in (SINGLE, DOUBLE):
        for ties in (TIES_EVEN, TIES_AWAY):
            for _ in range(2000):
                # |v| below 2^(e_min_q + k): quotients clamped at e_min_q,
                # and for k <= 0 values below the smallest quantum
                k = rng.randrange(-4, fmt.p + 4)
                num = rng.randrange(-(1 << 40), 1 << 40)
                den = rng.randrange(1 << 39, 1 << 40) << (-fmt.e_min_q - k)
                digits = rng.randrange(2, fmt.p + 1)
                a = round_rational(num, den, fmt, digits, ties)
                assert a == round_nearest(Fraction(num, den), fmt, digits, ties), (num, den, digits)
            for _ in range(2000):
                # exact ties (2m + 1) * 2^(e-1): m of `digits` bits, or any
                # m at the clamped quantum e_min_q; the oracle gets the
                # ratio unreduced, with a common factor g
                digits = rng.randrange(2, fmt.p + 1)
                e = rng.choice((fmt.e_min_q, rng.randrange(fmt.e_min_q, 64)))
                lo = 0 if e == fmt.e_min_q else 1 << (digits - 1)
                m = rng.randrange(lo, 1 << digits)
                g = rng.randrange(1, 1000)
                sign = rng.choice((1, -1))
                num = sign * (2 * m + 1) * g << max(e - 1, 0)
                den = g << max(1 - e, 0)
                a = round_rational(num, den, fmt, digits, ties)
                assert a == round_nearest(Fraction(num, den), fmt, digits, ties), (num, den, digits)
                want = m + 1 if ties == TIES_AWAY or m & 1 else m
                assert a.value == sign * want * Fraction(2) ** e


def test_user_constant_interface():
    c = Constant.from_enclosure("pi_old", pi_enclosure(100))
    enc = c.enclosure(100)
    assert enc.contains(pi_enclosure(200).lo)
    assert PI.name == "pi" and LN2.name == "ln2"
