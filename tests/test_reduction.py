"""Pipeline tests: z-extraction, the exact first/second steps, the third step."""

import dataclasses
import functools
import random
import sys
from fractions import Fraction
from math import ceil, floor, gcd

import pytest

from argred.softfp import (
    DOUBLE,
    DOUBLE_EXTENDED,
    QUAD,
    SINGLE,
    TIES_AWAY,
    TIES_EVEN,
    Fpn,
    Format,
    OpCounter,
    PreconditionError,
    UnderflowError,
    add,
    fast2mult,
    fast2sum,
    fma,
    round_nearest,
    sub,
    ulp,
    ulp2,
    ulp2_exp,
)
from argred.softfp import _canonical, _dyadic, _fast2mult_scaled, _fast2sum_scaled, _rounded
from argred.realnum import LN2, PI, Constant, RealEnclosure
from argred.constgen import ConstantSet, HypothesisViolation, gen_constants, synthetic_set
from argred.theorems import CheckConfig, _random_xs, _sweep_space
import argred.reduction as reduction
from argred.reduction import (
    ReductionRangeError,
    TheoremViolation,
    extract_z,
    first_step,
    reduce,
    residual_interval,
    second_step,
    sigma_for,
    third_step,
    xr_bound,
    xr_in_bounds,
)

CS_PI = gen_constants(PI, DOUBLE)
CS_LN2 = gen_constants(LN2, DOUBLE)


def _random_in_range_x(rng, fmt, r, n):
    """The thm6 campaign's draw of an in-range x for R = r at N, as an Fpn."""
    return _rounded(*next(_random_xs(rng, fmt, r.m, r.e, n)), fmt)


def test_sigma_and_bound():
    assert sigma_for(DOUBLE, 0).value == 3 * 2**51
    assert xr_bound(DOUBLE, 0) == 2**51 - 1
    assert xr_bound(DOUBLE, 3) == 2**48 - Fraction(1, 8)
    # built once per (format, N)
    assert sigma_for(QUAD, 7) is sigma_for(QUAD, 7)
    assert sigma_for(QUAD, 7) == Fpn(1, 3, QUAD.p - 9, QUAD)
    assert sigma_for(SINGLE, 7) != sigma_for(QUAD, 7)


def test_sigma_memo_starts_empty():
    # filled on first use, never at import
    code = "import argred.reduction as r, argred.cli; assert r._SIGMA == {}, r._SIGMA"
    import subprocess
    import sys

    subprocess.run([sys.executable, "-c", code], check=True)


def test_xr_in_bounds_matches_exact_bound():
    rng = random.Random(8)
    for fmt in (SINGLE, DOUBLE):
        for n in (0, 3, 10):
            r = gen_constants(PI, fmt, n=n).r
            bound = xr_bound(fmt, n)
            x = round_nearest(bound / r.value, fmt)
            for _ in range(4):
                x = x.next_up()
            for _ in range(9):
                for v in (x, -x):
                    assert xr_in_bounds(v, r, n) == (abs(v.value * r.value) <= bound)
                x = -((-x).next_up())
            for _ in range(50):
                v = Fpn(rng.choice((1, -1)), rng.randrange(1 << (fmt.p - 1), 1 << fmt.p),
                        rng.randrange(-fmt.p - 30, -n + 3), fmt)
                assert xr_in_bounds(v, r, n) == (abs(v.value * r.value) <= bound)


@pytest.mark.parametrize("constant", [PI, LN2], ids=["pi", "ln2"])
def test_extract_z_s_is_exact(constant):
    rng = random.Random(13)
    for fmt in (SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD):
        for n in (0, 5, 10):
            cs = gen_constants(constant, fmt, n=n)
            xs = [Fpn.from_int(10, fmt), Fpn.from_int(-3, fmt)]
            xs += [
                Fpn(rng.choice((1, -1)), rng.randrange(1 << (fmt.p - 1), 1 << fmt.p),
                    rng.randrange(-n - fmt.p - 20, -n - 2), fmt)
                for _ in range(20)
            ]
            for x in xs:
                z, info = extract_z(x, cs, n)
                assert info.s == x.value * cs.r.value - z.value
                assert info.s == Fraction(info.s_num) * Fraction(2) ** info.s_exp


def test_extract_z_s_violation_reports_the_fraction(monkeypatch):
    # a shift constant for the 2^0 grid under N = 1 leaves |s| up to 1/2,
    # above the 2^-2 the theorem allows
    cs = gen_constants(PI, DOUBLE, n=1)
    x = Fpn.from_int(11, DOUBLE)
    z0, _ = extract_z(x, cs, n=0)
    s = x.value * cs.r.value - z0.value
    assert abs(s) > Fraction(1, 4)
    monkeypatch.setattr(reduction, "sigma_for", lambda fmt, n: Fpn(1, 3, fmt.p - 2, fmt))
    with pytest.raises(TheoremViolation) as exc:
        extract_z(x, cs)
    assert f"|x*R - z| = {abs(s)} > 2^-(N+1)" in str(exc.value)


def test_extract_z_zero():
    z, info = extract_z(Fpn.zero(DOUBLE), CS_PI)
    assert z.is_zero() and info.k == 0 and info.s == 0 and not info.in_thm_range


def test_extract_z_small_arguments():
    z, info = extract_z(Fpn.from_int(3, DOUBLE), CS_PI)
    assert z.value == 1  # 3*R ~ 0.955 snaps to 1
    z, info = extract_z(Fpn.from_int(10, DOUBLE), CS_PI)
    assert z.value == 3 and info.ell == 2
    assert abs(info.s) <= Fraction(1, 2)
    assert info.s == 10 * CS_PI.r.value - 3


def test_extract_z_respects_n():
    # N = 3: z lands on the 2^-3 grid
    cs = gen_constants(PI, DOUBLE, n=3)
    z, info = extract_z(Fpn.from_int(10, DOUBLE), cs)
    assert info.k == z.value * 8
    assert abs(info.s) <= Fraction(1, 16)
    assert abs(z.value - 10 * cs.r.value) <= Fraction(1, 16)


def test_extract_z_refuses_an_n_the_set_does_not_cover():
    # a set covers every N up to its own; above it, the N-dependent
    # hypotheses are checked at the requested N
    x = Fpn.from_int(10, DOUBLE)
    cs3 = gen_constants(PI, DOUBLE, n=3)
    for n in (0, 1, 3):
        extract_z(x, cs3, n)
    # N = 1000: C1 ~ pi is below 2^(p+max(-1,p+N-2)) * lambda, so the
    # second step would underflow (a raw UnderflowError from fast2mult)
    with pytest.raises(HypothesisViolation, match=r"N=1000 is above the set's N=0.*second step"):
        extract_z(x, CS_PI, 1000)
    # 2^-N below the quantum
    with pytest.raises(HypothesisViolation, match=r"N=1075 is above the set's N=3.*2\^-N is a FPN"):
        extract_z(x, cs3, 1075)
    # the rule gen_constants applies: the largest N it accepts (971 for
    # pi at double) is the largest extract_z accepts above the set's own
    gen_constants(PI, DOUBLE, n=971)
    extract_z(Fpn.zero(DOUBLE), CS_PI, 971)
    with pytest.raises(HypothesisViolation):
        gen_constants(PI, DOUBLE, n=972)
    with pytest.raises(HypothesisViolation):
        extract_z(Fpn.zero(DOUBLE), CS_PI, 972)


def test_extract_z_negative_symmetric():
    zp, ip = extract_z(Fpn.from_int(10, DOUBLE), CS_PI)
    zn, im = extract_z(Fpn.from_int(-10, DOUBLE), CS_PI)
    assert zn.value == -zp.value and im.s == -ip.s


def test_range_boundary():
    # largest in-range x succeeds; its successor raises
    bound = xr_bound(DOUBLE, 0)
    from argred.softfp import round_nearest

    x = round_nearest(bound / CS_PI.r.value, DOUBLE)
    while x.value * CS_PI.r.value > bound:
        x = -((-x).next_up())
    assert reduce(x, CS_PI, measure_residual=False).rounding_ops_second == 9
    with pytest.raises(ReductionRangeError):
        extract_z(x.next_up(), CS_PI)


def test_first_step_examples():
    x = Fpn.from_int(10, DOUBLE)
    z, _ = extract_z(x, CS_PI)
    u, exact = first_step(x, z, CS_PI)
    assert exact
    assert u.value == 10 - 3 * CS_PI.c1.value
    assert abs(float(u.value) - 0.57522) < 1e-4
    # z = 0 leaves x untouched
    u0, exact0 = first_step(x, Fpn.zero(DOUBLE), CS_PI)
    assert exact0 and u0 == x
    # the flag is r == d at the call site: True exactly when u equals
    # x - z*C1.  A z that extraction does not give makes the fma round, so
    # both outcomes occur
    rng = random.Random(23)
    seen = set()
    for cs in (CS_PI, CS_LN2):
        for _ in range(400):
            x = _random_in_range_x(rng, DOUBLE, cs.r, 0)
            z, _ = extract_z(x, cs)
            for zz in (z, Fpn(1, rng.randrange(1, 1 << 20), rng.randrange(-30, 0), DOUBLE)):
                u, exact = first_step(x, zz, cs)
                assert exact == (u.value == x.value - zz.value * cs.c1.value), (x, zz)
                seen.add(exact)
    assert seen == {True, False}


def test_second_step_example():
    x = Fpn.from_int(10, DOUBLE)
    z, _ = extract_z(x, CS_PI)
    u, _ = first_step(x, z, CS_PI)
    ss = second_step(x, z, u, CS_PI)
    assert ss.exact and ss.ops == 9 and ss.last_line_exact
    assert ss.v1.value + ss.v2.value == 10 - 3 * (CS_PI.c1.value + CS_PI.c2.value)
    # v1 is the correctly rounded u - z*C2
    target = u.value - 3 * CS_PI.c2.value
    assert abs(ss.v1.value - target) <= ulp(ss.v1) / 2


def test_fast2mult_exact_for_unit_z():
    # z = 1 against the double pi C2: head is C2 itself, tail zero
    from argred.softfp import fast2mult

    one = Fpn.from_int(1, DOUBLE)
    h, low = fast2mult(one, CS_PI.c2)
    assert h == CS_PI.c2 and low.is_zero()


def test_second_step_zero_z():
    x = Fpn.from_int(10, DOUBLE)
    z = Fpn.zero(DOUBLE)
    u, _ = first_step(x, z, CS_PI)
    ss = second_step(x, z, u, CS_PI)
    assert ss.v1 == u and ss.v2.is_zero() and ss.exact and ss.ops == 9


@pytest.mark.parametrize("cs", [CS_PI, CS_LN2], ids=["pi", "ln2"])
def test_second_step_checks_its_grid_at_the_n_of_z(cs):
    # extraction at N = 10 off the N = 0 set: z sits on the 2^-10 grid,
    # and t1, v1 on the 2^-11 * ulp2(C1) grid, finer than the set's own
    for k in [*range(1, 4096), *range(2**40, 2**40 + 500)]:
        x = round_nearest(Fraction(k, 1 << 10) * cs.c1.value, DOUBLE)
        z, _ = extract_z(x, cs, 10)
        u, exact_first = first_step(x, z, cs)
        ss = second_step(x, z, u, cs)
        assert exact_first and ss.exact, k


def test_second_step_refuses_a_z_finer_than_the_set_covers():
    # C2 = 0, so the step stays exact at any z; the set covers N <= 971
    cs = synthetic_set(CS_PI.r)
    for n, covered in ((971, True), (972, False)):
        z = Fpn(1, 1, -n, DOUBLE)
        x = round_nearest(z.value * cs.c1.value, DOUBLE)
        u, _ = first_step(x, z, cs)
        if covered:
            assert second_step(x, z, u, cs).exact
        else:
            with pytest.raises(HypothesisViolation, match=r"N=972 is above the set's N=0"):
                second_step(x, z, u, cs)


def test_second_step_grid_violation_raises():
    # a u that no first step gives, off the grid: with C2 = 0, t1 = v1 = u
    # and the last line is exact, so only the grid check can object
    cs = synthetic_set(CS_PI.r)
    x = Fpn.from_int(10, DOUBLE)
    for z, on_grid_exp in ((Fpn.from_int(3, DOUBLE), -104), (Fpn(1, 3, -5, DOUBLE), -109)):
        # 2^(-N-1) * ulp2(C1) = 2^(-N-1-103), at N = 0 for z = 3, at N = 5 for z = 3 * 2^-5
        second_step(x, z, Fpn(1, 1, on_grid_exp, DOUBLE), cs)
        with pytest.raises(TheoremViolation, match="t1 is not a multiple"):
            second_step(x, z, Fpn(1, 1, on_grid_exp - 1, DOUBLE), cs)


def test_second_step_v1_grid_violation_raises():
    # C2 = (2^52 + 1) * 2^-105 is off the 2^-104 grid, so z*C2 = 3*C2 rounds
    # to p1 with the error p2 = -2^-105.  With u = p1, t1 = o(u - p1) = 0 is
    # on the grid and the last line is exact, while v1 = o(u - z*C2) = -p2
    # is not: only v1's grid check can object
    cs = dataclasses.replace(synthetic_set(CS_PI.r), c2=Fpn(1, (1 << 52) + 1, -105, DOUBLE))
    z = Fpn.from_int(3, DOUBLE)
    p1, p2 = fast2mult(z, cs.c2)
    assert p2.value == -Fraction(1, 2**105)
    with pytest.raises(TheoremViolation, match=r"v1 is not a multiple of 2\^\(-N-1\)\*ulp2\(C1\): 4503599627370496 \* 2\^-157"):
        second_step(Fpn.from_int(10, DOUBLE), z, p1, cs)


def test_third_step_and_residual():
    x = Fpn.from_int(10, DOUBLE)
    out = reduce(x, CS_PI)
    # w is the rounding of v2 - z*C3
    assert abs(out.w.value - (out.v2.value - 3 * CS_PI.c3.value)) <= ulp(out.w) / 2
    w = third_step(out.v1, out.v2, Fpn.zero(DOUBLE), CS_PI)
    assert w == out.v2  # z = 0 passes v2 through
    # the measured residual brackets the true error of v1 + w vs 10 - 3*pi
    enc = PI.enclosure(500)
    true_err = abs(out.v1.value + out.w.value - (10 - 3 * ((enc.lo + enc.hi) / 2)))
    assert out.residual_lo <= true_err <= out.residual_hi
    assert out.residual_hi < Fraction(1, 2**100)


def test_reduce_zero():
    out = reduce(Fpn.zero(DOUBLE), CS_PI)
    assert out.z.is_zero() and out.u.is_zero() and out.v1.is_zero()
    assert out.v2.is_zero() and out.w.is_zero()
    assert out.exact_first and out.exact_second and out.rounding_ops_second == 9


def test_reduce_ln2_700():
    out = reduce(Fpn.from_int(700, DOUBLE), CS_LN2)
    assert out.exact_first and out.exact_second
    assert out.residual_hi < Fraction(1, 2**100)
    # z should approximate 700/ln2 ~ 1009.9
    assert out.z.value == 1010


def test_boundary_x_near_half_quantum_times_r():
    # stress x close to 2^(-N-1)*R, where z = 2^-N: the q = 2 first-step
    # theorem covers this case and the pipeline must stay exact
    from argred.softfp import round_nearest

    for constant in (PI, LN2):
        for n in (0, 1, 4):
            cs = gen_constants(constant, DOUBLE, n=n)
            center = round_nearest(cs.r.value * Fraction(1, 2 ** (n + 1)), DOUBLE)
            x = center
            for _ in range(40):
                x = -((-x).next_up())
            for _ in range(80):
                out = reduce(x, cs, measure_residual=False)
                assert out.exact_first, (cs.c_id, n, x)
                assert out.exact_second, (cs.c_id, n, x)
                x = x.next_up()


def test_randomized_double_campaign_both_modes():
    rng = random.Random(20240501)
    for constant in (PI, LN2):
        for n in (0, 5):
            cs = gen_constants(constant, DOUBLE, n=n)
            for _ in range(4000):
                m = rng.randrange(1 << 52, 1 << 53)
                e = rng.randrange(-70, -n - 4)
                x = Fpn(rng.choice((1, -1)), m, e, DOUBLE)
                for ties in (TIES_EVEN, TIES_AWAY):
                    try:
                        out = reduce(x, cs, ties=ties, measure_residual=False)
                    except ReductionRangeError:
                        break
                    assert out.exact_first and out.exact_second, (cs.c_id, n, ties, x)
                    assert out.rounding_ops_second == 9


def test_single_precision_pipeline():
    cs = gen_constants(PI, SINGLE)
    out = reduce(Fpn.from_int(10, SINGLE), cs)
    assert out.z.value == 3 and out.exact_first and out.exact_second


def test_first_step_exact_random_r_at_single_and_double():
    # the first-step exactness is generic in R, not a property of pi/ln2:
    # random normal R, random in-range x, exact fma every time
    rng = random.Random(616)
    for fmt, trials in ((SINGLE, 4000), (DOUBLE, 4000)):
        p = fmt.p
        done = 0
        while done < trials:
            r = Fpn(1, rng.randrange(1 << (p - 1), 1 << p), rng.randrange(-p - 4, -p + 8), fmt)
            try:
                cs = synthetic_set(r, n=rng.choice((0, 1, 5)))
            except HypothesisViolation:
                continue
            for _ in range(40):
                x = Fpn(
                    rng.choice((1, -1)),
                    rng.randrange(1 << (p - 1), 1 << p),
                    rng.randrange(-2 * p, -p + 2),
                    fmt,
                )
                try:
                    z, _ = extract_z(x, cs)
                except ReductionRangeError:
                    continue
                u, exact = first_step(x, z, cs)
                assert exact, (fmt.p, r, x)
                done += 1


def test_synthetic_small_precision_pipeline():
    fmt = Format(p=8, e_min_q=-40, e_max=40)
    r = Fpn(1, 0b10100011, -8, fmt)
    cs = synthetic_set(r, n=1)
    out = reduce(Fpn(1, 0b11010010, -5, fmt), cs, measure_residual=False)
    assert out.exact_first and out.exact_second and out.rounding_ops_second == 9


def test_residual_interval_requires_constant():
    fmt = Format(p=8, e_min_q=-40, e_max=40)
    cs = synthetic_set(Fpn(1, 0b10100011, -8, fmt), n=1)
    with pytest.raises(ValueError):
        residual_interval(
            Fpn.from_int(1, fmt), Fpn.zero(fmt), Fpn.zero(fmt), Fpn.zero(fmt), cs
        )


@pytest.mark.parametrize("bits", [0, -3])
def test_residual_interval_refuses_bits_below_one(bits):
    # 0 is a width like any other, not a request for the 6p default
    x = Fpn.from_int(10, DOUBLE)
    out = reduce(x, CS_PI, measure_residual=False)
    with pytest.raises(ValueError, match=r"^bits must be >= 1$"):
        residual_interval(x, out.z, out.v1, out.w, CS_PI, bits=bits)


def residual_reference(x, z, v1, w, constant, bits):
    """|v1 + w - (x - z*C)| bounds in plain Fractions from enclosure(bits)."""
    enc = constant.enclosure(bits)
    base = v1.value + w.value - x.value
    lo, hi = sorted((base + z.value * enc.lo, base + z.value * enc.hi))
    if lo <= 0 <= hi:
        return Fraction(0), max(-lo, hi)
    return min(abs(lo), abs(hi)), max(abs(lo), abs(hi))


def _on_3_adic_grid(enc, k):
    """enc widened outward to the 3^-k grid: a non-dyadic enclosure."""
    g = 3**k
    return RealEnclosure(Fraction(floor(enc.lo * g), g), Fraction(ceil(enc.hi * g), g), enc.bits)


# its scaled enclosure's den is a power of three, so _over divides by Fraction
PI_3_ADIC = Constant.from_enclosure("pi", _on_3_adic_grid(PI.enclosure(800), 300))


@pytest.mark.parametrize("constant", [PI, LN2, PI_3_ADIC], ids=["pi", "ln2", "pi-3-adic"])
def test_residual_interval_matches_fraction_reference(constant):
    rng = random.Random(17)
    branches = set()
    for fmt in (SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD):
        den = constant.scaled_enclosure(6 * fmt.p)[2]
        assert den % 3 == 0 if constant is PI_3_ADIC else den & (den - 1) == 0
        for n in (0, 5, 10):
            cs = gen_constants(constant, fmt, n=n)
            xs = [Fpn.zero(fmt)] + [
                Fpn(rng.choice((1, -1)), rng.randrange(1 << (fmt.p - 1), 1 << fmt.p),
                    rng.randrange(-n - 4 - fmt.p, -n - 3), fmt)
                for _ in range(3)
            ]
            for ties in (TIES_EVEN, TIES_AWAY):
                for x in xs:
                    out = reduce(x, cs, ties=ties)
                    args = (x, out.z, out.v1, out.w)
                    want = residual_reference(*args, constant, 6 * fmt.p)
                    assert (out.residual_lo, out.residual_hi) == want
                    # an 8-bit enclosure is wider than the residual:
                    # the interval then contains zero
                    got = residual_interval(*args, cs, bits=8)
                    assert got == residual_reference(*args, constant, 8)
                    branches.add(got[0] == 0)
                    branches.add(out.residual_lo == 0)
    assert branches == {True, False}


def test_residual_memo_is_per_constant_instance():
    # same name, so the two constants compare and hash equal; the memo
    # must still give each its own C (pi against 2*pi)
    pi = Constant.from_enclosure("pi", PI.enclosure(64))
    two_pi = Constant.from_enclosure("pi", PI.enclosure(64).scale2(1))
    assert pi == two_pi and hash(pi) == hash(two_pi)
    x = Fpn.from_int(10, DOUBLE)
    out = reduce(x, CS_PI, measure_residual=False)
    args = (x, out.z, out.v1, out.w)
    got = [residual_interval(*args, dataclasses.replace(CS_PI, constant=c)) for c in (pi, two_pi, pi)]
    assert got[0] == got[2] == residual_reference(*args, pi, 6 * DOUBLE.p)
    assert got[1] == residual_reference(*args, two_pi, 6 * DOUBLE.p)
    assert got[0] != got[1]


# ---------------------------------------------------------------------------
# the second step on integer pairs against one built from the public ops
# ---------------------------------------------------------------------------


def _reference_second_step(x, z, u, cs, ties=TIES_EVEN, counter=None):
    """second_step written with the public kernel ops, one Fpn per
    rounding, and its exactness taken on Fractions."""
    ops = OpCounter()
    c2 = cs.c2
    v1, _ = fma(-z, c2, u, ties, ops)
    try:
        p1, p2 = fast2mult(z, c2, ties, ops)
        t1, t2 = fast2sum(u, -p1, ties, ops)
    except (PreconditionError, UnderflowError) as exc:
        raise TheoremViolation(f"error-free transformation failed: {exc}") from exc
    d1, ex1 = sub(t1, v1, ties, ops)
    d2, ex2 = add(d1, t2, ties, ops)
    v2, ex3 = sub(d2, p2, ties, ops)
    last_line_exact = ex1 and ex2 and ex3
    exact = v1.value + v2.value == x.value - z.value * (cs.c1.value + c2.value)
    if not last_line_exact:
        raise TheoremViolation(f"second-step last line rounded: x={x.to_text()}, z={z.to_text()}")
    if not z.is_zero():
        n = max(-z.max_quantum(), cs.n)
        if n > cs.n:
            reduction._require_covered(cs, n)
        g = -n - 1 + ulp2_exp(cs.c1)
        for name, val in (("t1", t1), ("v1", v1)):
            if not val.is_zero() and val.max_quantum() < g:
                raise TheoremViolation(f"{name} is not a multiple of 2^(-N-1)*ulp2(C1): {val.to_text()}")
    if counter is not None:
        counter.rounded += ops.rounded
    return v1, v2, exact, ops.rounded, last_line_exact


def _outcome(fn, *args):
    """fn's result, or its exception's type and message, with the count
    it left on a fresh OpCounter."""
    counter = OpCounter()
    try:
        out = tuple(fn(*args, counter=counter))
    except Exception as exc:
        out = (type(exc), str(exc))
    return out, counter.rounded


def _assert_lane_matches_reference(x, cs, n, ties):
    """first_step against fma(-z, C1, x), then second_step against the
    reference: on the first step's u, and on u one ulp off it, which
    drives the second step into its raises.  Returns the outcomes."""
    z, _ = extract_z(x, cs, n, ties)
    u_out = _outcome(first_step, x, z, cs, ties)
    assert u_out == _outcome(fma, -z, cs.c1, x, ties), (x, n, ties)
    u = u_out[0][0]
    outs = []
    for uu in (u, u.next_up()):
        got = _outcome(second_step, x, z, uu, cs, ties)
        assert got == _outcome(_reference_second_step, x, z, uu, cs, ties), (x, z, uu, n, ties)
        outs.append(got)
    return outs


@pytest.mark.parametrize("constant", [PI, LN2], ids=["pi", "ln2"])
@pytest.mark.parametrize("ties", [TIES_EVEN, TIES_AWAY])
def test_second_step_lane_matches_the_public_ops(constant, ties):
    rng = random.Random(20)
    raised = set()
    for fmt in (SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD):
        for n in (0, 5, 10):
            cs = gen_constants(constant, fmt, n=n)
            top = round_nearest(xr_bound(fmt, n) / cs.r.value, fmt)
            while not xr_in_bounds(top, cs.r, n):
                top = -((-top).next_up())
            xs = [Fpn.zero(fmt), top, -top]
            xs += [_random_in_range_x(rng, fmt, cs.r, n) for _ in range(40)]
            for x in xs:
                for out, ops in _assert_lane_matches_reference(x, cs, n, ties):
                    if isinstance(out[0], type):
                        raised.add(out[0])
                    else:
                        assert ops == out[3] == 9
    assert raised == {TheoremViolation}


@pytest.mark.parametrize("ties", [TIES_EVEN, TIES_AWAY])
def test_second_step_lane_matches_the_public_ops_on_p8_sets(ties):
    # the synthetic p = 8 sets of exhaustive thm6, every C2 multiple it
    # takes, on strided R and x
    cfg = CheckConfig(theorem="thm6", p=8, r_step=32, window=10)
    _, rs, xs = _sweep_space(cfg, 10, 8)
    fmt = rs[0].fmt
    cases = 0
    raised = set()
    for r in rs:
        for n in cfg.n_values:
            try:
                base = synthetic_set(r, n=n)
            except HypothesisViolation:
                continue
            grid = 8 * ulp2(base.c1)
            kmax = int((4 * ulp(base.c1)) / grid)
            for kk in sorted({0, 1, -1, 5, -5, kmax, -kmax, kmax - 1}):
                try:
                    cs = synthetic_set(r, n=n, c2=Fpn.from_fraction(kk * grid, fmt))
                except (HypothesisViolation, ValueError):
                    continue
                for x, *_ in xs[::23]:
                    if xr_in_bounds(x, r, n):
                        cases += 1
                        for out, _ in _assert_lane_matches_reference(x, cs, n, ties):
                            raised.add(out[0] if isinstance(out[0], type) else None)
    assert cases > 5_000 and raised == {None, TheoremViolation}


@pytest.mark.parametrize("op", [1, 2, 3], ids=["d1", "d2", "v2"])
def test_second_step_checks_each_last_line_rounding(monkeypatch, op):
    # the last line's three roundings are checked one by one.  In order,
    # the second step's own roundings are v1, d1, d2 and v2 (Fast2Mult and
    # Fast2Sum round in softfp): move the op-th result by its lowest set
    # bit, and wherever that leaves it the only inexact rounding of the
    # last line, second_step must raise.  d1 = t1 - v1 is mostly zero, left
    # as it is, so d1 alone is rare: about one case in a hundred
    rng = random.Random(24)
    cases = []
    for cs in (CS_PI, CS_LN2, gen_constants(PI, SINGLE, n=5)):
        for _ in range(800):
            x = _random_in_range_x(rng, cs.fmt, cs.r, cs.n)
            z, _ = extract_z(x, cs)
            cases.append((x, z, first_step(x, z, cs)[0], cs))
    inexact = []

    def nudged(n, e, digits, fmt, ties, real=reduction._round_int):
        r = real(n, e, digits, fmt, ties)
        if len(inexact) == op and r:
            r += r & -r
        inexact.append(r != n)
        return r

    monkeypatch.setattr(reduction, "_round_int", nudged)
    alone = 0
    for x, z, u, cs in cases:
        inexact.clear()
        try:
            second_step(x, z, u, cs)
            raised = None
        except TheoremViolation as exc:
            raised = str(exc)
        if inexact[1:] == [i == op for i in (1, 2, 3)]:
            alone += 1
            assert raised and raised.startswith("second-step last line rounded"), (x, z, op)
    assert alone >= 10, alone


def test_second_step_maps_a_fast2mult_underflow_to_a_theorem_violation():
    # a z*C2 whose Fast2Mult error term falls below 2^e_min_q = 2^-12
    fmt = Format(8, -12, 40)
    zero = Fpn.zero(fmt)
    cs = ConstantSet(None, fmt, 0, 2, Fpn(1, 163, -8, fmt), Fpn(1, 160, -7, fmt), Fpn(1, 129, -12, fmt), zero)
    x, z, u = Fpn(1, 200, -6, fmt), Fpn(1, 3, -2, fmt), Fpn(1, 1, -3, fmt)
    with pytest.raises(TheoremViolation, match="error-free transformation failed: fast2mult error term") as info:
        second_step(x, z, u, cs)
    assert isinstance(info.value.__cause__, UnderflowError)
    assert _outcome(second_step, x, z, u, cs) == _outcome(_reference_second_step, x, z, u, cs)


# ---------------------------------------------------------------------------
# z-extraction and the third step on integer pairs against the public ops
# ---------------------------------------------------------------------------


def _reference_extract_z(x, cs, n=None, ties=TIES_EVEN, counter=None, check=True):
    """extract_z written with the public kernel ops, its diagnostics read
    off the z Fpn."""
    if n is None:
        n = cs.n
    elif n > cs.n:
        reduction._require_covered(cs, n)
    r = cs.r
    if not xr_in_bounds(x, r, n):
        raise ReductionRangeError(
            f"|x*R| exceeds 2^(p-N-2) - 2^-N for N={n}; x={x.to_text()}, R={r.to_text()}"
        )
    z, k, ell, s, in_range = _reference_extraction(x, r, reduction.sigma_for(x.fmt, n), n, ties, counter, check)
    s_exp = min(x.e + r.e, z.e)
    return z, reduction.ZExtractInfo(k, ell, int(s / Fraction(2) ** s_exp), s_exp, in_range)


def _reference_extraction(x, r, sigma, n, ties, counter, check):
    """z = o(o(x*R + sigma) - sigma) by the public ops, and extraction's
    three checks, in their order, on exact values: (z, k, ell, s, in_range)."""
    t, _ = fma(x, r, sigma, ties, counter)
    z, _ = sub(t, sigma, ties, counter)
    k, in_range = 0, False
    if not z.is_zero():
        k = z.value * 2**n
        if k.denominator != 1:
            if check:
                raise TheoremViolation(f"z*2^N is not an integer: z={z.to_text()}, N={n}")
            k = 0
        k = int(k)
        in_range = abs(z.value) >= Fraction(2) ** (1 - n)
    ell = abs(k).bit_length()
    s = x.value * r.value - z.value
    if check and in_range:
        if not 2 <= ell <= x.fmt.p - 2:
            raise TheoremViolation(f"ell={ell} outside [2, p-2] for z={z.to_text()}")
        if abs(s) > Fraction(1, 2 ** (n + 1)):
            raise TheoremViolation(f"|x*R - z| = {abs(s)} > 2^-(N+1)")
    return z, k, ell, s, in_range


def _reference_third_step(v1, v2, z, cs, ties=TIES_EVEN, counter=None):
    return fma(-z, cs.c3, v2, ties, counter).value


def _assert_z_lane_matches_reference(x, cs, n, ties):
    """extract_z (check on and off) and third_step against the references:
    z, every ZExtractInfo field, the count and any exception.  Returns
    the outcome of extract_z with its checks on."""
    outs = []
    for check in (True, False):
        got = _outcome(lambda *a, counter: extract_z(*a, counter=counter, check=check), x, cs, n, ties)
        want = _outcome(lambda *a, counter: _reference_extract_z(*a, counter=counter, check=check), x, cs, n, ties)
        assert got == want, (x, n, ties, check)
        assert isinstance(got[0][0], type) or type(got[0][1]) is reduction.ZExtractInfo, got
        outs.append(got)
    if not isinstance(outs[0][0][0], type) and n <= cs.n:
        z = outs[0][0][0]
        ss = second_step(x, z, first_step(x, z, cs, ties)[0], cs, ties)
        for v2 in (ss.v2, ss.v2.next_up(), x):
            args = (ss.v1, v2, z, cs, ties)
            got = _outcome(lambda *a, counter: (third_step(*a, counter=counter),), *args)
            assert got == _outcome(lambda *a, counter: (_reference_third_step(*a, counter=counter),), *args)
    return outs[0]


@pytest.mark.parametrize("constant", [PI, LN2], ids=["pi", "ln2"])
@pytest.mark.parametrize("ties", [TIES_EVEN, TIES_AWAY])
def test_z_extraction_and_third_step_lane_match_the_public_ops(constant, ties):
    rng = random.Random(21)
    raised = set()
    for fmt in (SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD):
        for n in (0, 5, 10):
            cs = gen_constants(constant, fmt, n=n)
            top = round_nearest(xr_bound(fmt, n) / cs.r.value, fmt)
            while not xr_in_bounds(top, cs.r, n):
                top = -((-top).next_up())
            # x = 0, the range edge and one ulp past it, both signs
            xs = [Fpn.zero(fmt), top, -top, top.next_up(), -top.next_up()]
            xs += [_random_in_range_x(rng, fmt, cs.r, n) for _ in range(30)]
            # above the set's N: covered (n + 1) and not (1000)
            for x in xs:
                for nn in (n, n + 1, 1000):
                    out, count = _assert_z_lane_matches_reference(x, cs, nn, ties)
                    raised.add(out[0] if isinstance(out[0], type) else None)
                    assert count == (0 if isinstance(out[0], type) else 2)
            # a mismatched format: R, and C3 or v2
            other = SINGLE if fmt is not SINGLE else DOUBLE
            x = Fpn.from_int(3, other)
            assert _assert_z_lane_matches_reference(x, cs, n, ties) == ((ValueError, "operands must share a format"), 0)
            z, _ = extract_z(Fpn.from_int(3, fmt), cs, ties=ties)
            for args in ((x, x, z, cs, ties), (z, z, x, cs, ties)):
                got = _outcome(lambda *a, counter: (third_step(*a, counter=counter),), *args)
                assert got == _outcome(lambda *a, counter: (_reference_third_step(*a, counter=counter),), *args)
                assert got == ((ValueError, "operands must share a format"), 0)
    assert raised == {None, ReductionRangeError, HypothesisViolation}


@pytest.mark.parametrize("ties", [TIES_EVEN, TIES_AWAY])
def test_z_extraction_and_third_step_lane_match_the_public_ops_on_p8_sets(ties):
    # every 23rd x of the p = 8 sweep, on strided R
    cfg = CheckConfig(theorem="correct3", p=8, r_step=8, window=12)
    _, rs, xs = _sweep_space(cfg, 12, 1)
    cases = 0
    for r in rs:
        for n in cfg.n_values:
            try:
                cs = synthetic_set(r, n=n)
            except HypothesisViolation:
                continue
            for x, *_ in xs[::23]:
                out, _ = _assert_z_lane_matches_reference(x, cs, n, ties)
                cases += not isinstance(out[0], type)
    assert cases > 2_000


def _core_extraction(x, r, sigma, n, ties, check):
    """_extract_pairs, the core the campaign calls, on Fpn operands: (z, k,
    ell, s, in_range) as _reference_extraction gives them."""
    fmt = x.fmt
    zn, ze, k, ell, s, e0, in_range = reduction._extract_pairs(
        x.sign * x.m, x.e, r.sign * r.m, r.e, sigma.m, sigma.e, n, fmt, ties, check
    )
    return _rounded(zn, ze, fmt), k, ell, reduction._over(s, 1, e0), in_range


@pytest.mark.parametrize("constant", [PI, LN2], ids=["pi", "ln2"])
def test_extraction_core_raises_each_check_with_its_text(constant):
    # a few ulps past the range, z = 2^(p-2-N): k is one bit over ell's
    # bound; a sigma for N+1 leaves z off the 2^-N grid, one for N-1
    # leaves |x*R - z| up to 2^-N: each check raises its own text, in its
    # order
    rng = random.Random(5)
    texts = ("z*2^N is not an integer", "ell=", "|x*R - z| = ")
    raised = set()
    for fmt in (SINGLE, DOUBLE, QUAD):
        for n in (1, 5):
            cs = _preset_set(constant, fmt, n)
            past, sigma = _top_of_range(cs, n).next_up(), sigma_for(fmt, n)
            while _core_extraction(past, cs.r, sigma, n, TIES_EVEN, False)[2] < fmt.p - 1:
                past = past.next_up()
            for x in (past, -past):
                z = Fpn(x.sign, 1, fmt.p - 2 - n, fmt).to_text()
                want = (TheoremViolation, f"ell={fmt.p - 1} outside [2, p-2] for z={z}")
                assert _outcome_of(_core_extraction, x, cs.r, sigma, n, TIES_EVEN, True) == want
            xs = [past, -past] + [_random_in_range_x(rng, fmt, cs.r, n) for _ in range(40)]
            for sigma in (sigma, sigma_for(fmt, n + 1), sigma_for(fmt, n - 1)):
                for x in xs:
                    for ties in (TIES_EVEN, TIES_AWAY):
                        for check in (True, False):
                            args = (x, cs.r, sigma, n, ties)
                            got = _outcome_of(_core_extraction, *args, check)
                            assert got == _outcome_of(_reference_extraction, *args, None, check), (x, sigma, check)
                            if isinstance(got[0], type):
                                raised.update(t for t in texts if got[1].startswith(t))
    assert raised == set(texts)


# ---------------------------------------------------------------------------
# the pair core, composed as the thm6 campaign runs it, against the stages
# ---------------------------------------------------------------------------


@functools.cache
def _preset_set(constant, fmt, n):
    return gen_constants(constant, fmt, n=n)


def _public_chain(x, cs, n, ties, nudge):
    """extract_z, first_step and second_step on one counter; with nudge,
    the second step gets u one ulp up, which drives it into its raises."""
    counter = OpCounter()
    z, info = extract_z(x, cs, n, ties, counter)
    u, exact1 = first_step(x, z, cs, ties, counter)
    u = u.next_up() if nudge else u
    ss = second_step(x, z, u, cs, ties, counter)
    assert ss.last_line_exact
    info = (info.k, info.ell, info.s, info.in_thm_range)
    return z, info, u, exact1, ss.v1, ss.v2, ss.exact, ss.ops, counter.rounded


def _one_ulp_up(e, d, un, fmt):
    """u = un * 2^e one ulp up, with x - z*C1 = d * 2^e, on a scale that holds it."""
    u = _rounded(un, e, fmt).next_up()
    if u.m and u.e < e:
        d, e = d << (e - u.e), u.e
    return e, d, (u.sign * u.m << (u.e - e) if u.m else 0)


def _pair_chain(x, cs, n, ties, nudge):
    """The same on the pair core, its values read off the set once, as
    _thm6_chunk reads them; an Fpn, and s by value, only for the comparison."""
    fmt, r, c1, c2, sigma = cs.fmt, cs.r, cs.c1, cs.c2, sigma_for(cs.fmt, n)
    xn, xe = x.sign * x.m, x.e
    zn, ze, k, ell, s, s_exp, in_range = reduction._extract_pairs(
        xn, xe, r.sign * r.m, r.e, sigma.m, sigma.e, n, fmt, ties, True
    )
    e, d, un, exact1 = reduction._minus_zc_pairs(xn, xe, zn, ze, c1.sign * c1.m, c1.e, fmt, ties)
    if nudge:
        e, d, un = _one_ulp_up(e, d, un, fmt)
    u = _rounded(un, e, fmt)
    e, v1n, v2n, exact2, ops = reduction._second_step_pairs(
        xn, xe, zn, ze, e, d, un, c2.sign * c2.m, c2.e, cs, fmt, ties
    )
    z, v1, v2 = (_rounded(m, e, fmt) for m, e in ((zn, ze), (v1n, e), (v2n, e)))
    info = (k, ell, reduction._over(s, 1, s_exp), in_range)
    return z, info, u, exact1, v1, v2, exact2, ops, 2 + 1 + ops


def test_pair_core_matches_the_public_stages_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(
        constant=st.sampled_from([PI, LN2]),
        fmt=st.sampled_from([SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD]),
        n=st.sampled_from([0, 1, 5, 10]),
        ties=st.sampled_from([TIES_EVEN, TIES_AWAY]),
        sign=st.sampled_from([1, -1]),
        frac=st.integers(0, (1 << 112) - 1),
        binade=st.integers(0, 137),
        edge=st.sampled_from([None, "top", "past"]),
        nudge=st.booleans(),
    )
    def agree(constant, fmt, n, ties, sign, frac, binade, edge, nudge):
        cs = _preset_set(constant, fmt, n)
        if edge is None:
            # a p-bit significand over the campaign's binades and one above them
            e = -n - 2 - binade % (fmt.p + 26) + 1
            x = Fpn(sign, (1 << (fmt.p - 1)) | frac % (1 << (fmt.p - 1)), e, fmt)
        else:
            x = round_nearest(xr_bound(fmt, n) / cs.r.value, fmt)
            while not xr_in_bounds(x, cs.r, n):
                x = -((-x).next_up())
            x = x.next_up() if edge == "past" else x
            x = x if sign > 0 else -x
        public = _outcome_of(_public_chain, x, cs, n, ties, nudge)
        seen.add(public[0] if isinstance(public[0], type) else None)
        # the campaign tests the range once, before the core runs
        if not reduction._xr_fits(x.m * cs.r.m, x.e + cs.r.e + n, fmt.p):
            assert public[0] is ReductionRangeError
            return
        assert _outcome_of(_pair_chain, x, cs, n, ties, nudge) == public
        if not nudge and not isinstance(public[0], type):
            assert public[3] and public[6] and public[8] == 12

    agree()
    assert seen == {None, ReductionRangeError, TheoremViolation}


def _lower(n, e, j):
    """The pair (n, e) re-expressed j bits lower."""
    return n << j, e - j


def _steps_outcome(x, z, cs, ties, nudge, jc, jd):
    """_minus_zc_pairs and _second_step_pairs on the pairs x and z, with C1
    and C2 jc bits and the step's terms jd bits lower: every result as a
    value, the flags, the count, or the raise."""
    fmt = cs.fmt
    c1n, c1e, c2n, c2e = cs.pairs[2:6]
    e, d, un, exact1 = reduction._minus_zc_pairs(*x, *z, *_lower(c1n, c1e, jc), fmt, ties)
    if nudge:
        e, d, un = _one_ulp_up(e, d, un, fmt)
    d, e = _lower(d, e, jd)
    un <<= jd
    first = (_dyadic(d, e), _dyadic(un, e), exact1)
    try:
        e, v1n, v2n, exact2, ops = reduction._second_step_pairs(*x, *z, e, d, un, *_lower(c2n, c2e, jc), cs, fmt, ties)
    except TheoremViolation as exc:
        return first + (type(exc), str(exc))
    return first + (_dyadic(v1n, e), _dyadic(v2n, e), exact2, ops)


def _eft_outcome(fn, *args):
    """An error-free transformation core's two results as values, at the
    scale e of its last argument before fmt, and its count, or the raise."""
    counter = OpCounter()
    *_, e, fmt, ties = args
    try:
        hn, ln = fn(*args, counter)
    except (PreconditionError, UnderflowError) as exc:
        return type(exc), str(exc)
    return _dyadic(hn, e), _dyadic(ln, e), counter.rounded


def test_pair_core_does_not_depend_on_scale_property():
    # the core reads values, not pairs: its operands j bits lower, or z as
    # extraction's (k, -N) or canonical, give the same values, flags,
    # counts and raises; Fast2Sum at its precondition's boundary too
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    shift = st.integers(0, 80)
    seen = set()

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(
        constant=st.sampled_from([PI, LN2]),
        fmt=st.sampled_from([SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD]),
        n=st.sampled_from([0, 1, 5, 10]),
        ties=st.sampled_from([TIES_EVEN, TIES_AWAY]),
        sign=st.sampled_from([1, -1]),
        frac=st.integers(0, (1 << 112) - 1),
        binade=st.integers(0, 137),
        nudge=st.booleans(),
        canonical=st.booleans(),
        jx=shift, jz=shift, jc=shift, jd=shift,
    )
    def steps(constant, fmt, n, ties, sign, frac, binade, nudge, canonical, jx, jz, jc, jd):
        cs = _preset_set(constant, fmt, n)
        x = Fpn(sign, (1 << (fmt.p - 1)) | frac % (1 << (fmt.p - 1)), -n - 2 - binade % (fmt.p + 26) + 1, fmt)
        if not xr_in_bounds(x, cs.r, n):
            return
        r, sigma, xp = cs.r, sigma_for(fmt, n), (x.sign * x.m, x.e)
        z = reduction._extract_pairs(*xp, r.sign * r.m, r.e, sigma.m, sigma.e, n, fmt, ties, True)[:2]
        assert z[1] == -n
        base = _steps_outcome(xp, z, cs, ties, nudge, 0, 0)
        if canonical and z[0]:
            z = _canonical(*z, fmt)
        assert _steps_outcome(_lower(*xp, jx), _lower(*z, jz), cs, ties, nudge, jc, jd) == base
        seen.add(base[3] if isinstance(base[3], type) else None)

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(
        fmt=st.sampled_from([Format(p=8, e_min_q=-60, e_max=200), SINGLE, DOUBLE]),
        ties=st.sampled_from([TIES_EVEN, TIES_AWAY]),
        sa=st.sampled_from([1, -1]),
        sb=st.sampled_from([1, -1]),
        ma=st.integers(0, (1 << 113) - 1),
        mb=st.integers(0, (1 << 113) - 1),
        ta=st.integers(0, 30),
        tb=st.integers(1, 30),
        e=st.integers(-80, 0),
        eb=st.integers(-30, 0),
        boundary=st.sampled_from([None, "below", "at"]),
        j=shift, i=shift,
    )
    def efts(fmt, ties, sa, sb, ma, mb, ta, tb, e, eb, boundary, j, i):
        p, e = fmt.p, max(e, fmt.e_min_q)
        mb = (1 << (p - 1)) | mb % (1 << (p - 1))
        bn = sb * mb << tb  # b's narrowest exponent is e + tb
        if boundary is None:
            an = sa * (ma % (1 << p)) << ta
        else:
            # |a| < |b| with a an odd multiple of 2^t: t below b's narrowest
            # exponent fails Fast2Sum's precondition, t at it holds
            t = tb - (boundary == "below")
            an = sa * (2 * (ma % (mb >> 1)) + 1) << t
        got = _eft_outcome(_fast2sum_scaled, an, bn, e, fmt, ties)
        assert _eft_outcome(_fast2sum_scaled, an << j, bn << j, e - j, fmt, ties) == got
        if boundary is not None:
            assert isinstance(got[0], type) == (boundary == "below")
        seen.add(got[0] if isinstance(got[0], type) else None)
        got = _eft_outcome(_fast2mult_scaled, an, e, bn, eb, e + eb, fmt, ties)
        assert _eft_outcome(_fast2mult_scaled, an << j, e - j, bn, eb, e + eb - j - i, fmt, ties) == got
        seen.add(got[0] if isinstance(got[0], type) else None)

    steps()
    efts()
    assert seen == {None, TheoremViolation, PreconditionError, UnderflowError}


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# reduce: one pass over the pair core, the same outcome as the public stages


def _top_of_range(cs, n):
    """The largest positive x of cs.fmt with |x*R| <= 2^(p-N-2) - 2^-N."""
    x = round_nearest(xr_bound(cs.fmt, n) / cs.r.value, cs.fmt)
    while not xr_in_bounds(x, cs.r, n):
        x = -((-x).next_up())
    return x


def _reduce_by_hand(x, cs, ties, measure_residual):
    """reduce's fields from the four public stages and residual_interval."""
    z, info = extract_z(x, cs, ties=ties)
    u, exact1 = first_step(x, z, cs, ties)
    ss = second_step(x, z, u, cs, ties)
    w = third_step(ss.v1, ss.v2, z, cs, ties)
    res = residual_interval(x, z, ss.v1, w, cs) if measure_residual else (None, None)
    return (z, u, ss.v1, ss.v2, w, info.ell, info.s, exact1, ss.exact, ss.ops, info.in_thm_range, *res)


def test_reduce_matches_the_public_chain_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(
        constant=st.sampled_from([PI, LN2]),
        fmt=st.sampled_from([SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD]),
        n=st.sampled_from([0, 1, 5, 10]),
        ties=st.sampled_from([TIES_EVEN, TIES_AWAY]),
        measure=st.booleans(),
        sign=st.sampled_from([1, -1]),
        frac=st.integers(0, (1 << 112) - 1),
        binade=st.integers(0, 137),
        edge=st.sampled_from([None, "top", "past", "small", "subnormal", "foreign", "foreign-past"]),
        forged=st.sampled_from([None, None, "c1", "c2", "c3"]),
    )
    def agree(constant, fmt, n, ties, measure, sign, frac, binade, edge, forged):
        cs = _preset_set(constant, fmt, n)
        other = DOUBLE if fmt is SINGLE else SINGLE
        if forged:
            # one constant of another format: the stage that reads it refuses it
            cs = dataclasses.replace(cs, **{forged: round_nearest(getattr(cs, forged).value, other)})
        m = (1 << (fmt.p - 1)) | frac % (1 << (fmt.p - 1))
        if edge is None:
            x = Fpn(sign, m, -n - 2 - binade % (fmt.p + 26) + 1, fmt)
        elif edge == "small":
            # |x| < 2^(-N-2) and R < 2, so |x*R| < 2^(-N-1)
            x = Fpn(sign, m, -n - 2 - fmt.p - binade % 40, fmt)
        elif edge == "subnormal":
            x = Fpn(sign, frac % (1 << (fmt.p - 1)), fmt.e_min_q, fmt)
        elif edge == "foreign":
            x = Fpn(sign, 1 << (other.p - 1), -other.p - binade % 20, other)
        elif edge == "foreign-past":
            x = Fpn(sign, 1, 100, other)
        else:
            x = _top_of_range(cs, n)
            x = x.next_up() if edge == "past" else x
            x = x if sign > 0 else -x
        got = _outcome_of(reduce, x, cs, ties, measure)
        assert got == _outcome_of(_reduce_by_hand, x, cs, ties, measure)
        kind = got[0] if isinstance(got[0], type) else None
        seen.add((forged or edge, kind))
        if kind is None:
            assert isinstance(got, reduction.ReductionOutput)
            assert (got.residual_lo is None) is not measure
            assert edge != "small" or got.z.is_zero()
            for v in (got.s, got.residual_lo, got.residual_hi)[: 3 if measure else 1]:
                assert gcd(v.numerator, v.denominator) == 1 and v.denominator > 0

    agree()
    # the range test comes before the format check, as in extract_z
    assert {kind for edge, kind in seen if edge == "foreign"} == {ValueError}
    assert {kind for edge, kind in seen if edge in ("past", "foreign-past")} == {ReductionRangeError}
    assert {edge for edge, kind in seen if kind is None} == {None, "top", "small", "subnormal"}
    assert {kind for edge, kind in seen if edge in ("c1", "c2", "c3")} == {ValueError, ReductionRangeError}


def test_reduce_matches_the_public_chain_on_p8_sets():
    # with C2 and C3 set, ties are common at p = 8, in the third step too
    fmt = Format(p=8, e_min_q=-40, e_max=40)
    r = Fpn(1, 0b10100011, -8, fmt)
    third_step_ties = 0
    for n in (0, 1):
        cs = synthetic_set(r, n=n, c2=Fpn(1, 0b10100000, -16, fmt))
        cs = dataclasses.replace(cs, c3=Fpn(1, 0b10110101, -18, fmt))
        for x in (Fpn(sign, m, e, fmt) for e in range(-10, 0) for m in range(128, 256) for sign in (1, -1)):
            even, away = (_outcome_of(reduce, x, cs, ties, False) for ties in (TIES_EVEN, TIES_AWAY))
            assert even == _outcome_of(_reduce_by_hand, x, cs, TIES_EVEN, False)
            assert away == _outcome_of(_reduce_by_hand, x, cs, TIES_AWAY, False)
            if isinstance(even, reduction.ReductionOutput):
                third_step_ties += even[:4] == away[:4] and even.w != away.w
    assert third_step_ties


@pytest.mark.parametrize("constant", [PI, LN2], ids=["pi", "ln2"])
def test_reduce_at_the_top_of_the_range(constant):
    # the largest in-range x has ell = p-2, a z the thm6 draw never reaches for pi
    for fmt in (SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD):
        for n in (0, 5, 10):
            cs = _preset_set(constant, fmt, n)
            x = _top_of_range(cs, n)
            out = reduce(x, cs)
            assert out.ell == fmt.p - 2 and out.in_thm_range
            assert out.exact_first and out.exact_second and out.rounding_ops_second == 9
            assert out.residual_lo <= out.residual_hi
            # the true error lies in this interval and in the one from a 500-bit C
            ref_lo, ref_hi = residual_reference(x, out.z, out.v1, out.w, constant, 500)
            assert max(out.residual_lo, ref_lo) <= min(out.residual_hi, ref_hi)


def test_reduce_runs_the_core_once_and_builds_five_fpns(monkeypatch):
    built = []
    rounded = reduction._rounded
    monkeypatch.setattr(reduction, "_rounded", lambda *pair: built.append(pair) or rounded(*pair))

    def never(*args, **kwargs):
        raise AssertionError("reduce ran a public stage")

    for name in ("extract_z", "first_step", "second_step", "third_step", "residual_interval"):
        monkeypatch.setattr(reduction, name, never)
    checked = []
    init = Fpn.__init__
    for x, cs in (
        (Fpn.from_int(10, DOUBLE), CS_PI), (Fpn.from_int(-700, DOUBLE), CS_LN2), (Fpn.zero(QUAD), _preset_set(PI, QUAD, 5))
    ):
        reduce(x, cs)  # sigma_for builds its Fpn once per (format, N)
        built.clear()
        # the five results are built on the trusted path, not by Fpn.__init__
        monkeypatch.setattr(Fpn, "__init__", lambda self, *a: checked.append(a) or init(self, *a))
        out = reduce(x, cs)
        monkeypatch.setattr(Fpn, "__init__", init)
        assert [rounded(*pair) for pair in built] == list(out[:5]) and not checked
    # the fields, their order and defaults; the output is immutable
    assert reduction.ReductionOutput._fields == (
        "z", "u", "v1", "v2", "w", "ell", "s", "exact_first", "exact_second", "rounding_ops_second",
        "in_thm_range", "residual_lo", "residual_hi",
    )
    assert reduction.ReductionOutput._field_defaults == {"residual_lo": None, "residual_hi": None}
    with pytest.raises(AttributeError):
        out.z = out.u


# ---------------------------------------------------------------------------
# scale: every integer the pair core rounds stays near its operands' p bits


def _scale_inputs(cs, n, rng):
    """x of the four kinds the benchmark's reduce workload draws: uniform in
    range, nearest k*C*2^-N, the top of the range, and |x*R| < 2^(-N-1)."""
    fmt, r = cs.fmt, cs.r.value
    bound = xr_bound(fmt, n) / r
    xs = [bound * Fraction(rng.randrange(1, 1 << 40), 1 << 40) for _ in range(4)]
    xs += [Fraction(rng.randrange(2, 1 << rng.randrange(2, fmt.p - 3)), 2**n) * (cs.c1.value + cs.c2.value)]
    xs += [Fraction(1, 2 ** (n + 1)) / r * Fraction(rng.randrange(1, 1 << 32), 1 << 32)]
    xs = [round_nearest(v, fmt) for v in xs] + [_top_of_range(cs, n)]
    return xs + [-x for x in xs]


def test_reduce_rounds_integers_of_at_most_4p_bits(monkeypatch):
    # a zero at e_min_q would shift the other operands of every later
    # alignment down to it: at quad, integers of about 148p bits.  The
    # public stages get their zeros (x, z, u, v2) as Fpn values, stored at
    # e_min_q, and must give them the scale of the terms they meet
    import argred.softfp as softfp

    peak = {}
    for module in (reduction, softfp):
        def spy(n, e, digits, fmt, ties, real=module._round_int):
            peak[fmt.p] = max(peak.get(fmt.p, 0), abs(n).bit_length())
            return real(n, e, digits, fmt, ties)

        monkeypatch.setattr(module, "_round_int", spy)
    rng = random.Random(14)
    zeros = 0
    for constant in (PI, LN2):
        for fmt in (SINGLE, DOUBLE, DOUBLE_EXTENDED, QUAD):
            for n in (0, 5, 10):
                cs = _preset_set(constant, fmt, n)
                for x in [Fpn.zero(fmt), *_scale_inputs(cs, n, rng)]:
                    for ties in (TIES_EVEN, TIES_AWAY):
                        out = reduce(x, cs, ties)
                        assert _reduce_by_hand(x, cs, ties, True) == tuple(out)
                        zeros += out.z.is_zero() + out.u.is_zero() + out.v2.is_zero()
    assert zeros and set(peak) == {24, 53, 64, 113}
    assert all(bits <= 4 * p for p, bits in peak.items()), peak


def test_over_is_exact_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(
        form=st.sampled_from(["zero", "odd", "shifted"]),
        sign=st.sampled_from([1, -1]),
        odd=st.integers(0, 1 << 200),
        k=st.integers(1, 20_000),
        den_odd=st.integers(0, 1 << 100),
        den_shift=st.integers(0, 400),
        den_pow2=st.booleans(),
        e0=st.integers(-20_000, 20_000),
    )
    def exact(form, sign, odd, k, den_odd, den_shift, den_pow2, e0):
        n = {"zero": 0, "odd": sign * (2 * odd + 1), "shifted": sign * (2 * odd + 1) << k}[form]
        den = 1 << den_shift if den_pow2 else 2 * den_odd + 1
        # field for field against Fraction(), never against Fpn.value,
        # which is built by _dyadic too
        want = Fraction(n) * Fraction(2) ** e0
        for got, ref in ((reduction._over(n, den, e0), want / den), (_dyadic(n, e0), want)):
            assert (got.numerator, got.denominator, hash(got), str(got)) == (
                ref.numerator, ref.denominator, hash(ref), str(ref)
            )
            assert got == ref

    # str() of a 20 000-bit term passes the interpreter's default digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        exact()
    finally:
        sys.set_int_max_str_digits(limit)
