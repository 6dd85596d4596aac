"""Kernel tests: rounding, fma, ulp, error-free transformations.

Expected values come from two independent oracles: a candidate-distance
oracle (exact |v - m*2^e| comparisons around the floor significand) and,
at small precision, full enumeration of every representable value in a
window.
"""

import random
from fractions import Fraction

import pytest

from argred.softfp import (
    DOUBLE,
    DOUBLE_EXTENDED,
    QUAD,
    SINGLE,
    TIES_AWAY,
    TIES_EVEN,
    Format,
    Fpn,
    OpCounter,
    PreconditionError,
    UnderflowError,
    add,
    fast2mult,
    fast2sum,
    fits_scaled,
    fma,
    is_representable,
    mul,
    round_nearest,
    sub,
    ulp,
    ulp2,
)
from argred.softfp import _fast2sum_scaled, _round_int, _rounded
from argred.realnum import round_rational

P4 = Format(p=4, e_min_q=-20, e_max=40)
P5 = Format(p=5, e_min_q=-20, e_max=40)
P6 = Format(p=6, e_min_q=-20, e_max=40)


def nearest_by_candidates(v: Fraction, fmt: Format, digits: int, ties: str = TIES_EVEN) -> Fpn:
    """Oracle: decide the rounding by exact distance comparison."""
    if v == 0:
        return Fpn.zero(fmt)
    a = abs(v)
    top = 0
    while Fraction(2) ** (top + 1) <= a:
        top += 1
    while Fraction(2) ** top > a:
        top -= 1
    eq = max(top - digits + 1, fmt.e_min_q)
    quantum = Fraction(2) ** eq
    m0 = int(a / quantum)
    best = None
    for m in (m0 - 1, m0, m0 + 1, m0 + 2):
        if m < 0:
            continue
        dist = abs(a - m * quantum)
        if best is None or dist < best[0]:
            best = (dist, m)
        elif dist == best[0]:
            if ties == TIES_AWAY:
                best = (dist, max(best[1], m))
            else:
                best = (dist, best[1] if best[1] % 2 == 0 else m)
    sign = 1 if v > 0 else -1
    return Fpn(sign, best[1], eq, fmt)


def all_values(fmt: Format, e_lo: int, e_hi: int, subnormals_at: int | None = None):
    """Every positive canonical value with quantum exponent in [e_lo, e_hi)."""
    out = []
    if subnormals_at is not None:
        for m in range(1, 1 << (fmt.p - 1)):
            out.append(Fpn(1, m << (subnormals_at - fmt.e_min_q), fmt.e_min_q, fmt))
    for e in range(e_lo, e_hi):
        for m in range(1 << (fmt.p - 1), 1 << fmt.p):
            out.append(Fpn(1, m, e, fmt))
    return out


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def test_round_one_third_double():
    got = round_nearest(Fraction(1, 3), DOUBLE, 53)
    assert got == Fpn(1, 6004799503160661, -54, DOUBLE)
    assert got == nearest_by_candidates(Fraction(1, 3), DOUBLE, 53)


def test_round_is_projection():
    rng = random.Random(7)
    for _ in range(2000):
        m = rng.randrange(1, 1 << DOUBLE.p)
        e = rng.randrange(-200, 200)
        x = Fpn(1, m, e, DOUBLE)
        assert round_nearest(x.value, DOUBLE) == x


def test_round_recip_r_to_51_bits_matches_table():
    # pi double column: C1 = o_51(1/R) re-expressed canonically at p=53
    r = Fpn.from_text("5734161139222659 * 2^-54", DOUBLE)
    got = round_nearest(1 / r.value, DOUBLE, 51)
    assert got.to_text() == "7074237752028440 * 2^-51"


def test_round_identity_exhaustive_small_p():
    # 16-binade window, p = 4..6: rounding is the identity on representable values
    for fmt in (P4, P5, P6):
        for x in all_values(fmt, -8, 8, subnormals_at=fmt.e_min_q):
            assert round_nearest(x.value, fmt) == x
            assert round_nearest(-x.value, fmt) == -x


def test_round_matches_enumeration_oracle_exhaustive():
    # every midpoint-adjacent rational in a window, checked against full enumeration
    fmt = P4
    values = all_values(fmt, -4, 4)
    grid = sorted(set(v.value for v in values))
    probes = []
    for a, b in zip(grid, grid[1:]):
        mid = (a + b) / 2
        probes += [mid, (a + mid) / 2, (mid + b) / 2, mid + Fraction(1, 997)]
    for ties in (TIES_EVEN, TIES_AWAY):
        for v in probes:
            got = round_nearest(v, fmt, ties=ties)
            best = min(grid, key=lambda g: (abs(v - g),))
            dist = abs(v - best)
            cands = [g for g in grid if abs(v - g) == dist]
            if len(cands) == 1:
                assert got.value == cands[0], (v, ties)
            else:
                assert got.value in cands
                lo, hi = min(cands), max(cands)
                if ties == TIES_AWAY:
                    assert got.value == hi
                else:
                    assert got.m % 2 == 0


def test_round_monotone():
    fmt = P4
    vals = sorted(v.value for v in all_values(fmt, -4, 4))
    probes = []
    rng = random.Random(3)
    for _ in range(4000):
        a = Fraction(rng.randrange(-(1 << 12), 1 << 12), rng.randrange(1, 1 << 10))
        probes.append(a)
    probes.sort()
    for ties in (TIES_EVEN, TIES_AWAY):
        prev = None
        for v in probes:
            cur = round_nearest(v, fmt, ties=ties)
            if prev is not None:
                assert prev.value <= cur.value
            prev = cur
    assert vals == sorted(vals)


def test_round_error_at_most_half_ulp():
    rng = random.Random(11)
    for _ in range(3000):
        v = Fraction(rng.randrange(1, 1 << 40), rng.randrange(1, 1 << 20))
        r = round_nearest(v, SINGLE)
        if r.is_normal():
            assert abs(r.value - v) <= ulp(r) / 2


def test_round_overflow_raises():
    with pytest.raises(OverflowError):
        round_nearest(Fraction(1 << 50), P4)
    # largest finite value rounds fine
    top = Fpn(1, (1 << P4.p) - 1, P4.e_max - P4.p + 1, P4)
    assert round_nearest(top.value, P4) == top
    with pytest.raises(OverflowError):
        round_nearest(top.value + ulp(top), P4)


def test_rounding_results_match_checked_construction():
    # rounding stores a result directly only when it is already
    # canonical; every other shape must come out as Fpn(...) makes it
    def same(got, sign, m, e):
        want = Fpn(sign, m, e, P5)
        assert (got.sign, got.m, got.e, got.fmt) == (want.sign, want.m, want.e, want.fmt)

    same(round_nearest(Fraction(23, 4), P5), 1, 23, -2)           # p-bit normal
    same(round_nearest(Fraction(-63, 2), P5), -1, 32, 0)          # carry to 2**p
    same(round_nearest(63, P5), 1, 64, 0)                         # carry, integer path
    same(round_nearest(Fraction(7, 3), P5, target_p=3), 1, 5, -1)  # digits < p
    same(round_nearest(Fpn(1, 27, 0, P5), P5, target_p=2), 1, 3, 3)  # digits < p, Fpn path
    same(round_nearest(Fraction(3, 1 << 21), P5), 1, 2, -20)      # subnormal
    same(sub(Fpn(1, 17, -20, P5), Fpn(1, 16, -20, P5))[0], 1, 1, -20)
    same(round_nearest(Fraction(1, 1 << 22), P5), 1, 0, P5.e_min_q)  # zero
    top = Fpn(1, 31, P5.e_max - 4, P5)
    with pytest.raises(OverflowError):
        add(top, top)
    with pytest.raises(OverflowError):
        round_nearest(2 * top.value, P5)
    # exhaustively at p = 5, against the oracle rounding, which builds
    # its results with Fpn(...): every digits, both ties, subnormals
    for digits in range(2, P5.p + 1):
        for ties in (TIES_EVEN, TIES_AWAY):
            for n in range(-(1 << 8), 1 << 8):
                for e in (P5.e_min_q - 3, -5, 0):
                    want = round_rational(n, 1 << -e, P5, digits, ties)
                    assert round_nearest(Fraction(n, 1 << -e), P5, digits, ties) == want
                    assert _rounded(_round_int(n, e, digits, P5, ties), e, P5) == want


def test_round_int_overflows_exactly_when_fpn_does():
    # around P5's e_max = 40, on the exact path (n * 2^e fits digits bits)
    # and the rounding one: _round_int raises OverflowError exactly when
    # Fpn() refuses the rounded value, taken from the oracle in a format
    # that differs only in a wider range
    wide = Format(P5.p, P5.e_min_q, 4 * P5.e_max)
    seen = set()
    for digits in range(2, P5.p + 1):
        for ties in (TIES_EVEN, TIES_AWAY):
            for n in range(-(1 << 7), 1 << 7):
                for e in range(P5.e_max - 10, P5.e_max + 2):
                    want = round_rational(n << e, 1, wide, digits, ties)
                    try:
                        Fpn(want.sign, want.m, want.e, P5)
                        fpn_raises = False
                    except OverflowError:
                        fpn_raises = True
                    try:
                        r = _round_int(n, e, digits, P5, ties)
                        assert not fpn_raises and r * Fraction(2) ** e == want.value, (n, e, digits, ties)
                    except OverflowError:
                        assert fpn_raises, (n, e, digits, ties)
                    seen.add((want.value == n << e, fpn_raises))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_round_int_matches_the_oracle_property():
    # _round_int against round_rational, the independent oracle: signed n
    # whose top bit lies from 20 binades below e_min_q to 3 above e_max,
    # every digits in [2, p], both tie modes, exact ties and roundings that
    # carry to 2^digits forced; a result above the range raises Fpn()'s own
    # OverflowError message
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fmt = Format(p=12, e_min_q=-60, e_max=60)
    wide = Format(fmt.p, fmt.e_min_q, 10 * fmt.e_max)
    seen = set()

    @hyp.settings(max_examples=2000, deadline=None, derandomize=True)
    @hyp.given(
        form=st.sampled_from(["any", "exact", "tie", "carry_tie", "carry_above"]),
        sign=st.sampled_from([1, -1]),
        digits=st.integers(2, fmt.p),
        ties=st.sampled_from([TIES_EVEN, TIES_AWAY]),
        bits=st.integers(1, (1 << 40) - 1),
        s=st.integers(1, 30),
        top=st.integers(fmt.e_min_q - 20, fmt.e_max + 3),
    )
    def agree(form, sign, digits, ties, bits, s, top):
        m = (1 << digits) - 1 if form.startswith("carry") else 1 << (digits - 1) | bits % (1 << (digits - 1))
        n = {"any": bits, "exact": m << s, "tie": m << s | 1 << (s - 1), "carry_tie": m << s | 1 << (s - 1),
             "carry_above": m << s | (1 << s) - 1}[form]
        e = top - n.bit_length() + 1
        n *= sign
        v = Fraction(n) * Fraction(2) ** e
        want = round_rational(v.numerator, v.denominator, wide, digits, ties)
        try:
            Fpn(want.sign, want.m, want.e, fmt)
        except OverflowError as exc:
            with pytest.raises(OverflowError) as got:
                _round_int(n, e, digits, fmt, ties)
            assert str(got.value) == str(exc)
            seen.add(("overflow", want.value == v))
            return
        r = _round_int(n, e, digits, fmt, ties)
        assert r * Fraction(2) ** e == want.value and (r == n) == (want.value == v)
        derived = max(abs(n).bit_length() - digits, fmt.e_min_q - e)
        if e + abs(n).bit_length() - digits < fmt.e_min_q:  # the quantum is clamped to e_min_q
            seen.add("subnormal")
        if 2 * abs(n) % (1 << derived + 1) == 1 << derived if derived > 0 else False:
            seen.add(("tie", ties))
        if abs(want.value) == Fraction(2) ** (top + 1):
            seen.add(("carry", ties))

    agree()
    assert seen >= {("overflow", True), ("overflow", False), "subnormal", ("tie", TIES_EVEN), ("tie", TIES_AWAY),
                    ("carry", TIES_EVEN), ("carry", TIES_AWAY)}, seen


def test_round_int_zero_keeps_its_scale():
    # an exact zero is 0 at its operands' scale e, so a case on that scale
    # shifts nothing toward e_min_q; the Fpn built from it is still the
    # canonical zero.  Scales far below e_min_q and at or past e_max too:
    # a zero neither clamps nor overflows
    for e in (P5.e_min_q - 40, P5.e_min_q - 7, P5.e_min_q + 7, P5.e_max - P5.p, P5.e_max, P5.e_max + 9):
        for digits in (2, P5.p):
            for ties in (TIES_EVEN, TIES_AWAY):
                r = _round_int(0, e, digits, P5, ties)
                assert r == 0 and type(r) is int
                z = _rounded(r, e, P5)
                assert (z.sign, z.m, z.e) == (1, 0, P5.e_min_q) and z == Fpn.zero(P5)


def test_ops_align_a_zero_operand_at_the_other_operands_scale(monkeypatch):
    # an Fpn zero is stored at e_min_q: aligned there, add(10, 0) at quad
    # rounds a 16 498-bit integer and fma(0, 10, 10) a 16 607-bit one.  The
    # ops give a zero operand the other term's scale, with the same values
    # and exact flags as the exact oracle
    import argred.softfp as softfp

    zero, ten = Fpn.zero(QUAD), Fpn.from_int(10, QUAD)
    big = Fpn(-1, (1 << QUAD.p) - 3, 40, QUAD)
    pairs = [(ten, zero), (zero, ten), (big, zero), (zero, big), (zero, zero)]
    triples = [(ten, ten, zero), (zero, ten, ten), (ten, zero, big), (big, big, zero), (zero, zero, zero)]

    def want(v):
        return round_rational(v.numerator, v.denominator, QUAD), round_rational(v.numerator, v.denominator, QUAD).value == v

    sums = [want(a.value + b.value) for a, b in pairs]
    diffs = [want(a.value - b.value) for a, b in pairs]
    fmas = [want(a.value * b.value + c.value) for a, b, c in triples]
    bits = []

    def spy(n, e, digits, fmt, ties, real=softfp._round_int):
        bits.append(abs(n).bit_length())
        return real(n, e, digits, fmt, ties)

    monkeypatch.setattr(softfp, "_round_int", spy)
    for ties in (TIES_EVEN, TIES_AWAY):
        assert [tuple(add(a, b, ties)) for a, b in pairs] == sums
        assert [tuple(sub(a, b, ties)) for a, b in pairs] == diffs
        assert [tuple(fma(a, b, c, ties)) for a, b, c in triples] == fmas
        assert not fmas[3][1]
        for a, b in pairs:
            s, err = fast2sum(a, b, ties)
            assert (s, err.value) == (sums[pairs.index((a, b))][0], a.value + b.value - s.value)
    assert bits and max(bits) <= 2 * QUAD.p + 1, max(bits)


def test_subnormal_rounding_and_zero_ties():
    lam = Fpn.pow2(P4.e_min_q, P4)
    assert round_nearest(lam.value / 2, P4) == Fpn.zero(P4)  # tie to even 0
    assert round_nearest(lam.value / 2, P4, ties=TIES_AWAY) == lam
    assert round_nearest(lam.value / 3, P4) == Fpn.zero(P4)
    assert round_nearest(2 * lam.value / 3, P4) == lam


# ---------------------------------------------------------------------------
# arithmetic ops
# ---------------------------------------------------------------------------


def test_fma_spec_examples():
    r = Fpn.from_text("5734161139222659 * 2^-54", DOUBLE)
    sigma = Fpn(1, 3, 51, DOUBLE)
    x = Fpn.from_int(3, DOUBLE)
    got, exact = fma(x, r, sigma)
    assert got.value == sigma.value + 1
    assert not exact  # low bits of 3R were absorbed

    one = Fpn.from_int(1, DOUBLE)
    small, exact = fma(one, Fpn.from_int(5, DOUBLE), Fpn.zero(DOUBLE))
    assert small.value == 5 and exact

    tie, _ = fma(one, one, Fpn.pow2(-DOUBLE.p, DOUBLE))
    assert tie == one  # ties-to-even keeps the even significand


@pytest.mark.slow
def test_fma_against_exact_oracle_random_campaign():
    # spec invariant: fma = round(exact(a*b + c)), 10^6 random triples
    rng = random.Random(20240817)
    trials = 1_000_000
    fmt = DOUBLE
    lo_m, hi_m = 1 << (fmt.p - 1), 1 << fmt.p
    for i in range(trials):
        a = Fpn(rng.choice((1, -1)), rng.randrange(lo_m, hi_m), rng.randrange(-40, 40), fmt)
        b = Fpn(rng.choice((1, -1)), rng.randrange(lo_m, hi_m), rng.randrange(-40, 40), fmt)
        c = Fpn(rng.choice((1, -1)), rng.randrange(lo_m, hi_m), rng.randrange(-40, 40), fmt)
        got, exact = fma(a, b, c)
        v = a.value * b.value + c.value
        assert got == round_nearest(v, fmt), (a, b, c)
        assert exact == (got.value == v)


def test_add_sub_mul_flags():
    x = Fpn.from_int(3, DOUBLE)
    assert sub(x, x).value == Fpn.zero(DOUBLE)
    assert sub(x, x).value.sign == 1  # +0
    assert sub(x, x).exact

    y = Fpn.pow2(-70, DOUBLE)
    s, exact = add(Fpn.from_int(1, DOUBLE), y)
    assert not exact and s == Fpn.from_int(1, DOUBLE)

    z, exact = mul(Fpn.pow2(12, DOUBLE), x)
    assert exact and z.value == 3 * (1 << 12)

    # each op's flag is r == n at the call site: it must read True exactly
    # when the rounded result equals the exact value, and both outcomes
    # must occur for every op, fma too (p = 5, normal, subnormal and zero
    # operands)
    rng = random.Random(22)
    seen = set()
    for _ in range(3000):
        a, b, c = (rand_fpn(rng, P5, P5.e_min_q, P5.e_min_q + 12, allow_zero=True) for _ in range(3))
        for name, out, v in (
            ("add", add(a, b), a.value + b.value),
            ("sub", sub(a, b), a.value - b.value),
            ("mul", mul(a, b), a.value * b.value),
            ("fma", fma(a, b, c), a.value * b.value + c.value),
        ):
            assert out.exact == (out.value.value == v), (name, a, b, c)
            seen.add((name, out.exact))
    assert seen == {(name, flag) for name in ("add", "sub", "mul", "fma") for flag in (True, False)}


def test_sterbenz_subtraction_exact_exhaustive():
    # y/2 <= x <= 2y implies sub is exact, exhaustively at p in {4,5,6}
    for fmt in (P4, P5, P6):
        vals = all_values(fmt, 0, 8, subnormals_at=0)
        for ties in (TIES_EVEN, TIES_AWAY):
            for y in vals:
                for x in vals:
                    if 2 * x.value >= y.value and x.value <= 2 * y.value:
                        assert sub(x, y, ties=ties).exact, (x, y, fmt.p)


def test_mixed_format_rejected():
    with pytest.raises(ValueError):
        add(Fpn.from_int(1, P4), Fpn.from_int(1, P5))
    # every operand position of every op
    a, b = Fpn.from_int(3, P4), Fpn.from_int(5, P4)
    other = Fpn.from_int(3, P5)
    for op in (add, sub, mul):
        for args in ((other, b), (a, other)):
            with pytest.raises(ValueError, match="share a format"):
                op(*args)
    for args in ((other, a, b), (a, other, b), (a, b, other)):
        with pytest.raises(ValueError, match="share a format"):
            fma(*args)
    for eft in (fast2sum, fast2mult):
        for args in ((other, b), (a, other)):
            with pytest.raises(ValueError, match="share a format"):
                eft(*args)


def test_exact_zero_results_are_canonical_zero():
    # sums that cancel exactly give (+1, 0, e_min_q) under both tie modes,
    # whatever the operands' signs and exponents
    for fmt in (P5, DOUBLE):
        zero = Fpn(1, 0, fmt.e_min_q, fmt)
        x = Fpn(-1, 21, -3, fmt)
        y = Fpn(1, 3, fmt.e_min_q, fmt)
        for ties in (TIES_EVEN, TIES_AWAY):
            results = [
                add(x, -x, ties),
                add(-y, y, ties),
                sub(x, x, ties),
                sub(-y, -y, ties),
                fma(x, Fpn(1, 1, 2, fmt), Fpn(1, 21, -1, fmt), ties),
                fma(-x, Fpn(1, 1, 2, fmt), Fpn(-1, 21, -1, fmt), ties),
                fma(y, Fpn.from_int(-1, fmt), y, ties),
            ]
            for value, exact in results:
                assert exact
                assert (value.sign, value.m, value.e, value.fmt) == (zero.sign, zero.m, zero.e, zero.fmt)
            assert round_nearest(Fraction(0), fmt, ties=ties) == zero


# ---------------------------------------------------------------------------
# ulp and representability
# ---------------------------------------------------------------------------


def test_ulp_values():
    c1 = Fpn.from_text("7074237752028440 * 2^-51", DOUBLE)
    assert ulp(c1) == Fraction(1, 2**51)
    assert ulp2(c1) == Fraction(1, 2**103)
    assert ulp(Fpn.from_int(1, DOUBLE)) == Fraction(1, 2 ** (DOUBLE.p - 1))
    lam = Fpn.pow2(DOUBLE.e_min_q, DOUBLE)
    assert ulp(lam) == lam.value
    assert ulp(Fpn.zero(DOUBLE)) == lam.value


def test_is_representable():
    assert is_representable(Fraction(3, 2**5), 2, DOUBLE)
    assert not is_representable(Fraction((1 << DOUBLE.p) + 1), DOUBLE.p, DOUBLE)
    assert is_representable(0, 2, DOUBLE)
    assert not is_representable(Fraction(1, 3), DOUBLE.p, DOUBLE)
    assert not is_representable(Fraction(1, 2 ** (-DOUBLE.e_min_q + 1)), DOUBLE.p, DOUBLE)


def _fits_by_definition(v: Fraction, digits: int, fmt: Format) -> bool:
    # v = m * 2^e for some integer m with |m| < 2^digits and e >= e_min_q
    return v == 0 or any(
        (v / Fraction(2) ** e).denominator == 1 and abs(v / Fraction(2) ** e) < 2**digits
        for e in range(fmt.e_min_q, 32)
    )


def test_fits_scaled_matches_the_fraction_definition():
    fmt = Format(p=8, e_min_q=-40, e_max=96)
    lo = fmt.e_min_q
    # odd parts of digits and digits + 1 bits, shifted; zero; both signs
    wide = [(1 << d) + k for d in (7, 8) for k in (-1, 1)]
    nums = list(range(-70, 71)) + [s * (w << t) for w in wide for t in (0, 3) for s in (1, -1)]
    exps = list(range(lo - 4, lo + 4)) + list(range(-3, 4))
    for digits in (7, 8):
        for num in nums:
            for exp in exps:
                v = Fraction(num) * Fraction(2) ** exp
                want = _fits_by_definition(v, digits, fmt)
                assert fits_scaled(num, exp, digits, fmt) == want, (num, exp, digits)
                assert is_representable(v, digits, fmt) == want, (num, exp, digits)
    # the quantum floor: e0 + tz at e_min_q and at e_min_q - 1
    assert fits_scaled(3, lo, 8, fmt) and fits_scaled(-3, lo, 8, fmt)
    assert not fits_scaled(3, lo - 1, 8, fmt) and not fits_scaled(-3, lo - 1, 8, fmt)
    assert fits_scaled(6, lo - 1, 8, fmt)
    # the odd part at digits and at digits + 1 bits
    assert fits_scaled(255 << 4, -2, 8, fmt) and not fits_scaled(257 << 4, -2, 8, fmt)
    assert fits_scaled(0, lo - 100, 2, fmt)
    assert not is_representable(Fraction(1, 3) * 2**lo, 8, fmt)


# ---------------------------------------------------------------------------
# error-free transformations
# ---------------------------------------------------------------------------


def rand_fpn(rng, fmt, e_lo, e_hi, allow_zero=False):
    if allow_zero and rng.random() < 0.01:
        return Fpn.zero(fmt)
    m = rng.randrange(1 << (fmt.p - 1), 1 << fmt.p)
    return Fpn(rng.choice((1, -1)), m, rng.randrange(e_lo, e_hi), fmt)


def test_fast2sum_trivial_cases():
    one = Fpn.from_int(1, DOUBLE)
    x = Fpn.from_text("123456789 * 2^-13", DOUBLE)
    s, e = fast2sum(x, Fpn.zero(DOUBLE))
    assert s == x and e.is_zero()
    s, e = fast2sum(one, Fpn.pow2(-DOUBLE.p, DOUBLE))
    assert s == one and e == Fpn.pow2(-DOUBLE.p, DOUBLE)


def test_fast2sum_random_recomposition():
    rng = random.Random(99)
    fmt = DOUBLE
    n = 0
    while n < 100_000:
        a = rand_fpn(rng, fmt, -30, 30, allow_zero=True)
        b = rand_fpn(rng, fmt, -30, 30, allow_zero=True)
        if abs(a).value < abs(b).value:
            a, b = b, a
        for ties in (TIES_EVEN, TIES_AWAY):
            s, e = fast2sum(a, b, ties=ties)
            assert s.value + e.value == a.value + b.value
            assert s == round_nearest(a.value + b.value, fmt, ties=ties)
        n += 1


def test_fast2sum_precondition_checked():
    # small |a| with a coarser-grained b: no valid exponent ordering
    fmt = P4
    a = Fpn(1, 9, -6, fmt)   # 9 * 2^-6, odd significand
    b = Fpn(1, 9, 0, fmt)    # much larger magnitude
    with pytest.raises(PreconditionError):
        fast2sum(a, b)
    # the exponent-ordering escape hatch: a tiny but coarse a is fine
    a2 = Fpn.pow2(3, fmt)
    b2 = Fpn(1, 9, 0, fmt)
    s, e = fast2sum(a2, b2)  # |a2| < |b2| but e_a >= e_b holds
    assert s.value + e.value == a2.value + b2.value


def test_fast2sum_core_reads_the_narrowest_exponent_from_the_value():
    # b = 2^p * 2^e, the value of the canonical (2^(p-1), e+1), has the
    # narrowest exponent e+1, above the widest exponent e of the odd
    # a = -(2^p - 1) * 2^e, so the precondition fails, though this sum
    # comes out exact; on the lower common scale e-2 as well, where both
    # integers carry two more trailing zeros
    a, b, e = -((1 << P5.p) - 1), 1 << P5.p, -3
    for shift in (0, 2):
        with pytest.raises(PreconditionError, match="precondition fails"):
            _fast2sum_scaled(a << shift, b << shift, e - shift, P5, TIES_EVEN, None)


def test_fast2mult_random_recomposition():
    rng = random.Random(100)
    fmt = DOUBLE
    for _ in range(100_000):
        a = rand_fpn(rng, fmt, -20, 20)
        b = rand_fpn(rng, fmt, -20, 20)
        h, low = fast2mult(a, b)
        assert h.value + low.value == a.value * b.value
    h, low = fast2mult(Fpn.from_int(3, fmt), Fpn.pow2(9, fmt))
    assert low.is_zero() and h.value == 3 * 512


def test_fast2mult_tail_underflow_raises():
    fmt = P4
    a = Fpn(1, 9, fmt.e_min_q, fmt)
    b = Fpn(1, 9, -3, fmt)  # product tail falls below 2^e_min_q
    with pytest.raises(UnderflowError):
        fast2mult(a, b)


def test_fast2mult_raises_exactly_when_the_error_is_not_representable():
    # the fma's exact flag is fast2mult's one check: it fails exactly when
    # a*b - RN(a*b) does not fit p bits at or above 2^e_min_q
    rng = random.Random(7)
    raised = 0
    for _ in range(20_000):
        a, b = (Fpn(rng.choice((1, -1)), rng.randrange(64), rng.randrange(-20, -5), P6) for _ in range(2))
        prod = a.value * b.value
        err = prod - round_rational(prod.numerator, prod.denominator, P6).value
        try:
            h, low = fast2mult(a, b)
        except UnderflowError:
            raised += 1
            assert not is_representable(err, P6.p, P6), (a, b)
        else:
            assert is_representable(err, P6.p, P6) and low.value == err, (a, b)
    assert 0 < raised < 20_000


def test_op_counter_counts_rounded_ops():
    c = OpCounter()
    one = Fpn.from_int(1, DOUBLE)
    fast2sum(one, Fpn.pow2(-10, DOUBLE), counter=c)
    assert c.rounded == 3
    fast2mult(one, one, counter=c)
    assert c.rounded == 5
    fma(one, one, one, counter=c)
    assert c.rounded == 6


# ---------------------------------------------------------------------------
# representation plumbing
# ---------------------------------------------------------------------------


def test_text_roundtrip_decimal_and_hex():
    rng = random.Random(5)
    for _ in range(500):
        x = rand_fpn(rng, DOUBLE, -300, 300, allow_zero=True)
        assert Fpn.from_text(x.to_text(), DOUBLE) == x
        assert Fpn.from_text(x.to_text(hex_sig=True), DOUBLE) == x
    assert Fpn.from_text("-11464520 * 2^-45", SINGLE).sign == -1


SWEEP_P8 = Format(p=8, e_min_q=-40, e_max=96)


@pytest.mark.parametrize("fmt", [SINGLE, QUAD, SWEEP_P8], ids=["single", "quad", "p8"])
def test_trusted_construction_matches_checked(fmt):
    # -x, abs(x) and Fpn.zero skip Fpn.__init__; their fields must be
    # exactly what the checking constructor makes of the same value
    def fields(x):
        return (x.sign, x.m, x.e, x.fmt)

    p = fmt.p
    values = [
        Fpn(1, (1 << (p - 1)) + 5, -p, fmt),                 # normal
        Fpn(1, 3, fmt.e_min_q, fmt),                          # subnormal
        Fpn(1, 1, fmt.e_min_q, fmt),                          # smallest subnormal
        Fpn(1, (1 << p) - 1, fmt.e_max - (p - 1), fmt),       # largest finite
    ]
    for x in values + [Fpn(-1, v.m, v.e, fmt) for v in values]:
        assert fields(-x) == fields(Fpn(-x.sign, x.m, x.e, fmt))
        assert fields(abs(x)) == fields(Fpn(1, x.m, x.e, fmt))
        assert fields(-(-x)) == fields(x)
    zero = Fpn.zero(fmt)
    assert fields(zero) == fields(Fpn(1, 0, fmt.e_min_q, fmt)) == fields(Fpn(-1, 0, 0, fmt))
    assert fields(-zero) == fields(abs(zero)) == fields(zero)


def test_canonical_construction():
    # non-canonical inputs canonicalize; inexact ones are rejected
    assert Fpn(1, 6, 0, P4) == Fpn(1, 12, -1, P4)
    assert Fpn(1, 1 << 10, -3, P4).m == 8  # 2^10 * 2^-3 == 8 * 2^4
    with pytest.raises(ValueError):
        Fpn(1, (1 << P4.p) + 1, 0, P4)
    with pytest.raises(ValueError):
        Fpn(1, 3, P4.e_min_q - 1, P4)
    z = Fpn(-1, 0, 5, P4)
    assert z.sign == 1 and z.e == P4.e_min_q


def _is_canonical(x, fmt):
    """The canonical form: zero as (1, 0, e_min_q); else sign +-1, m in
    [2^(p-1), 2^p) or e == e_min_q with m below that, and x within range."""
    if x.fmt != fmt or x.e < fmt.e_min_q:
        return False
    if x.m == 0:
        return (x.sign, x.e) == (1, fmt.e_min_q)
    top = x.m.bit_length()
    return x.sign in (1, -1) and top <= fmt.p and (top == fmt.p or x.e == fmt.e_min_q) and top - 1 + x.e <= fmt.e_max


def _fpn_fields(st):
    """(fmt, sign, m, e) over the four presets and a p = 8 format: a
    significand of up to p bits shifted left by up to 60 places, at an
    exponent from that many places below e_min_q to past e_max, so every
    field tuple has an exact value in the format or lies above its range."""
    @st.composite
    def fields(draw):
        fmt = draw(st.sampled_from([SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD, SWEEP_P8]))
        t = draw(st.integers(0, 60))
        m = draw(st.integers(0, (1 << fmt.p) - 1) | st.sampled_from([0, 1, (1 << fmt.p) - 1, 1 << fmt.p - 1])) << t
        e = draw(st.integers(fmt.e_min_q - t, fmt.e_min_q + 2 * fmt.p) | st.integers(fmt.e_min_q - t, fmt.e_max + 2))
        return fmt, draw(st.sampled_from([1, -1])), m, e

    return fields()


def test_fpn_forms_are_canonical_property():
    # Fpn(...), _rounded on the signed pair (at its own scale and up to 40
    # places lower), -x and abs(x) all give the canonical form of the
    # same value; a value above the range raises OverflowError
    hyp = pytest.importorskip("hypothesis")
    seen = set()

    @hyp.settings(max_examples=1000, deadline=None, derandomize=True)
    @hyp.given(fields=_fpn_fields(hyp.strategies), k=hyp.strategies.integers(0, 40))
    def canonical(fields, k):
        fmt, sign, m, e = fields
        v = sign * Fraction(m) * Fraction(2) ** e
        try:
            x = Fpn(sign, m, e, fmt)
        except OverflowError:
            assert abs(v) >= Fraction(2) ** (fmt.e_max + 1)
            seen.add("overflow")
            return
        assert x.value == v and _is_canonical(x, fmt), (x, fields)
        assert _rounded(sign * m, e, fmt) == x == _rounded(sign * m << k, e - k, fmt)
        for y, want in ((-x, -v), (abs(x), abs(v)), (-(-x), v)):
            assert y.value == want and _is_canonical(y, fmt), (y, fields)
        seen.add("zero" if not m else "normal" if x.is_normal() else "subnormal")

    canonical()
    assert seen == {"overflow", "zero", "normal", "subnormal"}, seen


def test_fpn_text_round_trip_property():
    # Fpn.from_text(x.to_text(h), fmt) == x, decimal and hex, over the
    # four presets and a p = 8 format, zeros and subnormals included
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=1000, deadline=None, derandomize=True)
    @hyp.given(fields=_fpn_fields(hyp.strategies))
    def round_trip(fields):
        fmt, sign, m, e = fields
        try:
            x = Fpn(sign, m, e, fmt)
        except OverflowError:
            return
        for h in (False, True):
            assert Fpn.from_text(x.to_text(h), fmt) == x, (x, h)

    round_trip()


def test_next_up_down_adjacent_exhaustive():
    fmt = P4
    vals = [Fpn.zero(fmt)] + all_values(fmt, fmt.e_min_q, fmt.e_min_q + 6, subnormals_at=fmt.e_min_q)
    ordered = sorted(set(vals), key=lambda v: v.value)
    for a, b in zip(ordered, ordered[1:]):
        assert a.next_up() == b
        assert -((-b).next_up()) == a
        assert (-b).next_up() == -a
