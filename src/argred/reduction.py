"""The argument-reduction pipeline.

Four stages, all driven by one fma-capable kernel:

  z-extraction   z = fma(x, R, sigma) - sigma with sigma = 3 * 2^(p-N-2),
                 which snaps x*R onto the 2^-N grid in a single rounding;
  first step     u = fma(x, -z*C1): exact under the audited hypotheses;
  second step    the 9-flop sequence producing v1 + v2 = x - z*C1 - z*C2
                 exactly (Fast2Mult / Fast2Sum based);
  third step     w ~ v2 - z*C3, leaving the reduced argument in the
                 unevaluated sum v1 + w with about 2p significant bits.

Every stage reports exactness flags computed against the exact value,
and the second step counts its rounded operations (always 9).  The
arithmetic and checks are written once, in a core on signed integers
(_extract_pairs, softfp._fma_pairs as fma(z, -C, x) for the first and
third steps, _second_step_pairs, _residual_pairs) that rounds with
softfp._round_int.  Each stage puts its terms on one common scale once,
so exactness is r == n; z goes on as the pair (k, -N).  _extract_pairs
builds sigma from the N it is given, so nothing a set's lane holds
depends on N.  reduce and the thm6 harness read a set once, through its
lane (ConstantSet.lane), run the core once per x, and build an Fpn only for what they return; the
four public stages are thin Fpn wrappers over the same core.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .constgen import N_DEPENDENT, ConstantSet, HypothesisViolation, _scaled_ends, first_failure
from .softfp import (
    TIES_EVEN,
    Fpn,
    Format,
    OpCounter,
    PreconditionError,
    UnderflowError,
    _check_fmt,
    _dyadic,
    _fast2mult_scaled,
    _fast2sum_scaled,
    _fma_pairs,
    _pair,
    _round_int,
    _rounded,
    _trailing_zeros,
    fma,
)

__all__ = [
    "ReductionOutput",
    "ReductionRangeError",
    "TheoremViolation",
    "ZExtractInfo",
    "extract_z",
    "first_step",
    "reduce",
    "residual_interval",
    "s_within_half",
    "second_step",
    "sigma_for",
    "third_step",
    "xr_bound",
    "xr_in_bounds",
]


class ReductionRangeError(ValueError):
    """|x*R| exceeds the admissible range for this N."""


class TheoremViolation(ArithmeticError):
    """A theorem conclusion failed at runtime (kernel or hypothesis bug)."""


def xr_bound(fmt: Format, n: int) -> Fraction:
    """The admissible bound on |x*R|: 2^(p-N-2) - 2^-N."""
    return Fraction(2) ** (fmt.p - n - 2) - Fraction(2) ** (-n)


def xr_in_bounds(x: Fpn, r: Fpn, n: int) -> bool:
    """|x*R| <= 2^(p-N-2) - 2^-N, exactly; see _xr_fits."""
    return _xr_fits(x.m * r.m, x.e + r.e + n, x.fmt.p)


def _xr_fits(a: int, shift: int, p: int) -> bool:
    """xr_in_bounds scaled by 2^N, for a = |x.m * R.m| and shift = x.e + R.e + N:
    the integer inequality a * 2^shift <= 2^(p-2) - 1."""
    top = (1 << (p - 2)) - 1
    return (a << shift) <= top if shift >= 0 else a <= top << -shift


def sigma_for(fmt: Format, n: int) -> Fpn:
    """The shift constant 3 * 2^(p-N-2) that places z's last bit at 2^-N; the core builds its own."""
    return Fpn(1, 3, fmt.p - n - 2, fmt)


def s_within_half(s_num: int, s_exp: int, n: int) -> bool:
    """|s_num * 2^s_exp| <= 2^(-N-1), i.e. |s_num| * 2^(s_exp+N+1) <= 1."""
    a = s_num if s_num >= 0 else -s_num
    d = s_exp + n + 1
    return (a << d) <= 1 if d >= 0 else a <= 1 << -d


def _require_covered(cs: ConstantSet, n: int) -> None:
    """Raise HypothesisViolation unless the N-dependent hypotheses hold at n > cs.n."""
    failed = first_failure(cs, n, N_DEPENDENT)
    if failed is not None:
        raise HypothesisViolation(f"N={n} is above the set's N={cs.n} and fails {failed}")


class ZExtractInfo(NamedTuple):
    k: int                  # z * 2^N, an integer
    ell: int                # bit length of |k|
    s_num: int              # x*R - z = s_num * 2^s_exp, exactly
    s_exp: int
    in_thm_range: bool      # |z| >= 2^(1-N), where the z guarantees apply

    @property
    def s(self) -> Fraction:
        """x*R - z as an exact Fraction."""
        return _dyadic(self.s_num, self.s_exp)


def extract_z(
    x: Fpn, cs: ConstantSet, n: int | None = None, ties: str = TIES_EVEN, counter: OpCounter | None = None,
    check: bool = True,
) -> tuple[Fpn, ZExtractInfo]:
    """Extract z = k * 2^-N ~ x*R via the fma-and-subtract trick.

    N defaults to cs.n.  A set built at cs.n covers every n <= cs.n;
    a larger n that fails the set's N-dependent hypotheses raises
    HypothesisViolation.

    Raises ReductionRangeError when |x*R| > 2^(p-N-2) - 2^-N.  With
    check=True the extraction guarantees (k integral; for |z| >= 2^(1-N):
    2 <= ell <= p-2 and |x*R - z| <= 2^(-N-1)) are verified exactly and
    a failure raises TheoremViolation.
    """
    if n is None:
        n = cs.n
    elif n > cs.n:
        _require_covered(cs, n)
    fmt, r = x.fmt, cs.r
    if not _xr_fits(x.m * r.m, x.e + r.e + n, fmt.p):
        raise ReductionRangeError(_OUT_OF_RANGE % (n, x.to_text(), r.to_text()))
    _check_fmt(fmt, r)
    if counter is not None:
        counter.rounded += 2
    xn, xe = _pair(x, -n - r.e)  # a zero x at sigma's scale, not e_min_q: t = sigma, z = 0, s = 0
    zn, ze, k, ell, s, e0, in_range = _extract_pairs(xn, xe, r.sign * r.m, r.e, n, fmt, ties, check)
    z = _rounded(zn, ze, fmt)
    s_exp = min(z.e, x.e + r.e)  # ZExtractInfo's s is over z's canonical exponent, or x*R's if lower
    s = s << (e0 - s_exp) if e0 >= s_exp else s >> (s_exp - e0)
    return z, tuple.__new__(ZExtractInfo, (k, ell, s, s_exp, in_range))


def _extract_pairs(
    xn: int, xe: int, rn: int, re: int, n: int, fmt: Format, ties: str, check: bool
) -> tuple[int, int, int, int, int, int, bool]:
    """z = o(o(x*R + sigma) - sigma) for an in-range x, sigma = 3 * 2^(p-N-2) as the
    pair (3 * 2^(p-2), -N), and its diagnostics, checked at the rounding's scale
    e0 = min(x.e + R.e, -N): (zn, ze, k, ell, s, e0, in_thm_range) with z = zn * 2^ze
    the pair (k, -N), or at e0 when check=False lets a z off the 2^-N grid through, and
    x*R - z = s * 2^e0 exactly; a sigma above fmt's range raises OverflowError."""
    xr_exp, p = xe + re, fmt.p
    e0 = xr_exp if xr_exp < -n else -n
    xr, sn = xn * rn << (xr_exp - e0), 3 << (p - 2 - n - e0)
    tn = _round_int(xr + sn, e0, p, fmt, ties)
    zn = _round_int(tn - sn, e0, p, fmt, ties)
    s, shift = xr - zn, e0 + n
    if shift >= 0:
        k = zn << shift
    elif zn & ((1 << -shift) - 1) == 0:
        k = zn >> -shift
    elif check:
        raise TheoremViolation(f"z*2^N is not an integer: z={_rounded(zn, e0, fmt).to_text()}, N={n}")
    else:  # k and ell stay 0; in_thm_range is |z| >= 2^(1-N)
        return zn, e0, 0, 0, s, e0, (zn if zn > 0 else -zn).bit_length() + shift >= 2
    ell = (k if k >= 0 else -k).bit_length()
    in_range = ell >= 2  # |z| >= 2^(1-N)
    if check and in_range:
        if ell > p - 2:
            raise TheoremViolation(f"ell={ell} outside [2, p-2] for z={_rounded(k, -n, fmt).to_text()}")
        if not s_within_half(s, e0, n):
            raise TheoremViolation(f"|x*R - z| = {abs(_dyadic(s, e0))} > 2^-(N+1)")
    return k, -n, k, ell, s, e0, in_range


_OUT_OF_RANGE = "|x*R| exceeds 2^(p-N-2) - 2^-N for N=%d; x=%s, R=%s"
_OFF_GRID = "%s is not a multiple of 2^(-N-1)*ulp2(C1): %s"


def _second_step_pairs(
    xn: int, xe: int, zn: int, ze: int, e: int, d: int, un: int,
    c2n: int, c2e: int, cs: ConstantSet, fmt: Format, ties: str,
) -> tuple[int, int, int, bool, int]:
    """second_step's nine roundings and checks, for x - z*C1 = d * 2^e and
    u = un * 2^e, on the scale e lowered to z.e + C2.e: (e, v1n, v2n,
    exact, ops), v1 and v2 at the scale e returned."""
    ops = OpCounter()
    p = fmt.p
    zc2 = zn * c2n
    if zc2:
        ep = ze + c2e
        if ep < e:
            d, un, e = d << (e - ep), un << (e - ep), ep
        zc2 <<= ep - e
    v1n = _round_int(un - zc2, e, p, fmt, ties)
    try:
        p1n, p2n = _fast2mult_scaled(zn, ze, c2n, c2e, e, fmt, ties, ops)
        t1n, t2n = _fast2sum_scaled(un, -p1n, e, fmt, ties, ops)
    except (PreconditionError, UnderflowError) as exc:
        raise TheoremViolation(f"error-free transformation failed: {exc}") from exc
    a = t1n - v1n  # each exact operand of the last line, rounded and then checked
    d1n = _round_int(a, e, p, fmt, ties)
    b = d1n + t2n
    d2n = _round_int(b, e, p, fmt, ties)
    c = d2n - p2n
    v2n = _round_int(c, e, p, fmt, ties)
    ops.rounded += 4  # v1 and the last line
    exact = v1n + v2n == d - zc2  # v1 + v2 == x - z*C1 - z*C2

    if d1n != a or d2n != b or v2n != c:
        x, z = _rounded(xn, xe, fmt).to_text(), _rounded(zn, ze, fmt).to_text()
        raise TheoremViolation(f"second-step last line rounded: x={x}, z={z}")
    # proof facts: for z != 0, t1 and v1 sit on the 2^(-N-1) * ulp2(C1)
    # grid (for z = 0 they are x itself, on x's grid only).  A z on the
    # 2^-N' grid with N' > cs.n is also what extraction at N' gives, as
    # |x*R - z| <= 2^(-N'-1), so the facts hold at N' if the set's do.
    if zn:
        n = -ze - _trailing_zeros(zn)
        if n > cs.n:
            _require_covered(cs, n)
        else:
            n = cs.n
        g = -n - 1 + cs.lane.c1_ulp2_exp - e  # the grid is 2^g at scale e: the low g bits are zero
        off = (1 << g) - 1 if g > 0 else 0
        if t1n & off:
            raise TheoremViolation(_OFF_GRID % ("t1", _rounded(t1n, e, fmt).to_text()))
        if v1n & off:
            raise TheoremViolation(_OFF_GRID % ("v1", _rounded(v1n, e, fmt).to_text()))
    return e, v1n, v2n, exact, ops.rounded


def first_step(
    x: Fpn, z: Fpn, cs: ConstantSet, ties: str = TIES_EVEN, counter: OpCounter | None = None
) -> tuple[Fpn, bool]:
    """u = fma(-z, C1, x), the rounded x - z*C1; exact is True when no rounding occurred.

    Under the audited hypotheses exactness is a theorem, so an inexact
    flag here is a finding for the harness, not a runtime error.
    """
    return fma(-z, cs.c1, x, ties, counter)


class SecondStepResult(NamedTuple):
    v1: Fpn
    v2: Fpn
    exact: bool              # v1 + v2 == x - z*C1 - z*C2 exactly
    ops: int                 # rounded operations in this step (always 9)
    last_line_exact: bool    # the three final ops committed no rounding


def second_step(
    x: Fpn, z: Fpn, u: Fpn, cs: ConstantSet, ties: str = TIES_EVEN, counter: OpCounter | None = None
) -> SecondStepResult:
    """The 9-flop exact second reduction step.

    Runs  v1 = o(u - z*C2); (p1,p2) = Fast2Mult(z, C2);
    (t1,t2) = Fast2Sum(u, -p1); v2 = o(o(o(t1-v1)+t2)-p2)  and verifies
    the claimed exactness facts: a rounded last line, or (z != 0) t1 or v1
    off the 2^(-N-1) * ulp2(C1) grid, raises TheoremViolation.  N is cs.n,
    or z's own N' > cs.n, which the set's N-dependent hypotheses must
    cover (else HypothesisViolation).  u comes from first_step, it is not
    recomputed.  A failed Fast2Sum precondition, or a Fast2Mult error term
    below the quantum 2^e_min_q, raises TheoremViolation.
    """
    fmt = z.fmt
    _check_fmt(fmt, cs.c2, u, x)
    lane, zn, ze = cs.lane, z.sign * z.m, z.e
    un, ue = _pair(u, ze + lane.c1e)  # a zero u at the scale of z*C1, a zero x at u's
    xn, xe = _pair(x, ue)
    mzc1, e = zn * lane.mc1n, min(xe, ue)  # x - z*C1 = d * 2^e exactly, u = un * 2^e
    if mzc1:
        e = min(e, ze + lane.c1e)
        mzc1 <<= ze + lane.c1e - e
    d, un = (xn << (xe - e)) + mzc1, un << (ue - e)
    e, v1n, v2n, exact, ops = _second_step_pairs(xn, xe, zn, ze, e, d, un, lane.c2n, lane.c2e, cs, fmt, ties)
    if counter is not None:
        counter.rounded += ops
    return SecondStepResult(_rounded(v1n, e, fmt), _rounded(v2n, e, fmt), exact, ops, True)


def third_step(
    v1: Fpn, v2: Fpn, z: Fpn, cs: ConstantSet, ties: str = TIES_EVEN, counter: OpCounter | None = None
) -> Fpn:
    """w = o(v2 - z*C3); (v1, w) is the 2p-bit unevaluated reduced argument."""
    return fma(-z, cs.c3, v2, ties, counter).value


def residual_interval(
    x: Fpn, z: Fpn, v1: Fpn, w: Fpn, cs: ConstantSet, bits: int | None = None
) -> tuple[Fraction, Fraction]:
    """Bounds on |v1 + w - (x - z*C)| from the enclosure of C.

    The paper gives no accuracy theorem for the third step, so the
    residual is measured, not asserted.  C's enclosure (6p bits by
    default) comes from the constant's memo; both ends are computed as
    integers over den * 2^-e0.
    """
    if cs.constant is None:
        raise ValueError("synthetic constant sets have no underlying C")
    ends = cs.lane.ends if bits is None else _scaled_ends(cs.constant, bits)
    top = max(x.e, z.e, v1.e, w.e)  # a zero at the top sets no alignment
    return _residual_pairs(*_pair(x, top), *_pair(z, top), *_pair(v1, top), *_pair(w, top), ends)


def _residual_pairs(
    xn: int, xe: int, zn: int, ze: int, v1n: int, v1e: int, wn: int, we: int, ends: tuple
) -> tuple[Fraction, Fraction]:
    """residual_interval on signed pairs and C's ends from constgen._scaled_ends:
    one product with C's lower bound, the other end that plus z times the width
    (they swap for z < 0); each n * 2^e0 / den by _dyadic, with no gcd, when den
    is a power of two (the named constants', a --const file's)."""
    c_lo, c_width, den, den_exp = ends
    e0 = min(xe, ze, v1e, we)
    zn <<= ze - e0
    lo = den * ((v1n << (v1e - e0)) + (wn << (we - e0)) - (xn << (xe - e0))) + zn * c_lo
    hi = lo + zn * c_width
    if hi < lo:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        lo, hi = 0, max(-lo, hi)
    elif hi < 0:
        lo, hi = -hi, -lo
    if den_exp is None:
        return _over(lo, den, e0), _over(hi, den, e0)
    return _dyadic(lo, e0 - den_exp), _dyadic(hi, e0 - den_exp)


def _over(n: int, den: int, e0: int) -> Fraction:
    """A residual end n * 2^e0 / den, exactly, through Fraction: for a den
    that is not a power of two (a non-dyadic Constant.from_enclosure)."""
    return _dyadic(n, e0) / den


class ReductionOutput(NamedTuple):
    """Everything the pipeline produced for one x, plus diagnostics; a
    NamedTuple, so it also unpacks and compares like a tuple."""

    z: Fpn
    u: Fpn
    v1: Fpn
    v2: Fpn
    w: Fpn
    ell: int
    s: Fraction
    exact_first: bool
    exact_second: bool
    rounding_ops_second: int
    in_thm_range: bool
    residual_lo: Optional[Fraction] = None
    residual_hi: Optional[Fraction] = None


def reduce(x: Fpn, cs: ConstantSet, ties: str = TIES_EVEN, measure_residual: bool = True) -> ReductionOutput:
    """Run the full pipeline at N = cs.n, with every runtime theorem check of
    the four stage wrappers on, in their order, in one pass over the pair
    core on the set's lane; x is checked against R's format only when x.fmt
    is not the lane's, and C1, C2 and C3 only when the lane found them off it."""
    lfmt, rn, re, mc1n, c1e, c2n, c2e, mc3n, c3e, _, same_fmt, ends = cs.lane
    n, fmt, (xn, xe) = cs.n, x.fmt, _pair(x, -cs.n - re)  # a zero x at sigma's scale, as in extract_z
    if not _xr_fits(x.m * (rn if rn > 0 else -rn), xe + re + n, fmt.p):
        raise ReductionRangeError(_OUT_OF_RANGE % (n, x.to_text(), cs.r.to_text()))
    if fmt is not lfmt:
        _check_fmt(fmt, cs.r)
    zn, ze, _, ell, s_num, s_exp, in_range = _extract_pairs(xn, xe, rn, re, n, fmt, ties, True)
    if not same_fmt:
        _check_fmt(fmt, cs.c1, cs.c2, cs.c3)
    ue, d, un = _fma_pairs(zn, ze, mc1n, c1e, xn, xe, fmt, ties)  # the first and third steps are fma(z, -C, x)
    e, v1n, v2n, exact2, ops = _second_step_pairs(xn, xe, zn, ze, ue, d, un, c2n, c2e, cs, fmt, ties)
    we, _, wn = _fma_pairs(zn, ze, mc3n, c3e, v2n, e, fmt, ties)
    res = _residual_pairs(xn, xe, zn, ze, v1n, e, wn, we, ends) if measure_residual and ends else (None, None)
    return tuple.__new__(ReductionOutput, (
        _rounded(zn, ze, fmt), _rounded(un, ue, fmt), _rounded(v1n, e, fmt), _rounded(v2n, e, fmt),
        _rounded(wn, we, fmt), ell, _dyadic(s_num, s_exp), un == d, exact2, ops, in_range, *res,
    ))
