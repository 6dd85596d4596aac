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
(_extract_pairs, _minus_zc_pairs, _second_step_pairs, _residual_pairs)
that rounds with softfp._round_int, the kernel's one rounding and tie
rule.  Each stage puts its terms on one common scale 2^e once and rounds
plain integer expressions there, so exactness is r == n and the second
step's recompositions are integer equalities.  Extraction rounds and
checks at e0 = min(x.e + R.e, sigma.e) and hands z on as the pair
(k, -N); the first step runs at min(x.e, C1.e - N), lowered to
C2.e - N for the second.  reduce runs
the core once per x and builds an Fpn, on the trusted path, only for the
five values it returns; the four public stages are thin Fpn wrappers
over it, and the thm6 campaign and the sweeps call it directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .constgen import N_DEPENDENT, ConstantSet, HypothesisViolation, first_failure
from .softfp import (
    _FMT_MISMATCH,
    TIES_EVEN,
    Fpn,
    Format,
    OpCounter,
    OpResult,
    PreconditionError,
    UnderflowError,
    _dyadic,
    _fast2mult_scaled,
    _fast2sum_scaled,
    _op_result,
    _pair,
    _round_int,
    _rounded,
    _trailing_zeros,
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


_SIGMA: dict[tuple[int, int], Fpn] = {}


def sigma_for(fmt: Format, n: int) -> Fpn:
    """The shift constant 3 * 2^(p-N-2) that places z's last bit at 2^-N.

    Built on first use for each (fmt instance, N) and shared afterwards;
    keyed by id, not Format equality, so sigma.fmt is the caller's fmt
    (and, held by the entry, keeps that id from being reused).
    """
    sigma = _SIGMA.get((id(fmt), n))
    if sigma is None:
        sigma = _SIGMA[id(fmt), n] = Fpn(1, 3, fmt.p - n - 2, fmt)
    return sigma


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


def s_within_half(s_num: int, s_exp: int, n: int) -> bool:
    """|s_num * 2^s_exp| <= 2^(-N-1), i.e. |s_num| * 2^(s_exp+N+1) <= 1."""
    a = s_num if s_num >= 0 else -s_num
    d = s_exp + n + 1
    return (a << d) <= 1 if d >= 0 else a <= 1 << -d


def _check_fmt(fmt: Format, *vals: Fpn) -> None:
    """Raise ValueError unless every value is in fmt."""
    for v in vals:
        if v.fmt is not fmt and v.fmt != fmt:
            raise ValueError(_FMT_MISMATCH)


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
    zn, ze, k, ell, s, e0, in_range = _extract(x, cs.r, n, ties, counter, check)
    z = _rounded(zn, ze, x.fmt)
    s_exp = min(z.e, x.e + cs.r.e)  # ZExtractInfo's s is over z's canonical exponent, or x*R's if lower
    s = s << (e0 - s_exp) if e0 >= s_exp else s >> (s_exp - e0)
    return z, tuple.__new__(ZExtractInfo, (k, ell, s, s_exp, in_range))


def _extract(x: Fpn, r: Fpn, n: int, ties: str, counter: OpCounter | None, check: bool) -> tuple:
    """extract_z's range test and format check, then _extract_pairs on x."""
    fmt = x.fmt
    if not _xr_fits(x.m * r.m, x.e + r.e + n, fmt.p):
        raise ReductionRangeError(f"|x*R| exceeds 2^(p-N-2) - 2^-N for N={n}; x={x.to_text()}, R={r.to_text()}")
    sigma = sigma_for(fmt, n)  # sigma.fmt is fmt itself
    _check_fmt(fmt, r)
    if counter is not None:
        counter.rounded += 2
    if not x.m:  # t = sigma, z = 0 exactly, and s = 0
        return 0, -n, 0, 0, 0, 0, False
    return _extract_pairs(x.sign * x.m, x.e, r.sign * r.m, r.e, sigma.m, sigma.e, n, fmt, ties, check)


def _extract_pairs(
    xn: int, xe: int, rn: int, re: int, sn: int, se: int, n: int, fmt: Format, ties: str, check: bool
) -> tuple[int, int, int, int, int, int, bool]:
    """z = o(o(x*R + sigma) - sigma) for an in-range x and sigma > 0, and
    its diagnostics, checked at the rounding's scale e0 = min(x.e + R.e,
    sigma.e): (zn, ze, k, ell, s, e0, in_thm_range) with z = zn * 2^ze the
    pair (k, -N), or at e0 when check=False lets a z off the 2^-N grid
    through, and x*R - z = s * 2^e0 exactly."""
    xr_exp = xe + re
    e0 = xr_exp if xr_exp < se else se
    xr, sn = xn * rn << (xr_exp - e0), sn << (se - e0)
    p = fmt.p
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


def _minus_zc_pairs(
    xn: int, xe: int, zn: int, ze: int, cn: int, ce: int, fmt: Format, ties: str
) -> tuple[int, int, int, bool]:
    """o(x - z*c) in one rounding, the fma of the first and third steps,
    on the scale e = min(xe, ze + ce), xe for z = 0: (e, d, r, exact) with
    x - z*c = d * 2^e exactly and the result r * 2^e."""
    if zn:
        ep = ze + ce
        if ep < xe:
            e, d = ep, (xn << (xe - ep)) - zn * cn
        else:
            e, d = xe, xn - (zn * cn << (ep - xe))
    else:
        e, d = xe, xn
    r = _round_int(d, e, fmt.p, fmt, ties)
    return e, d, r, r == d


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
    d1n = _round_int(t1n - v1n, e, p, fmt, ties)
    d2n = _round_int(d1n + t2n, e, p, fmt, ties)
    v2n = _round_int(d2n - p2n, e, p, fmt, ties)
    ops.rounded += 4  # v1 and the last line
    exact = v1n + v2n == d - zc2  # v1 + v2 == x - z*C1 - z*C2

    if d1n != t1n - v1n or d2n != d1n + t2n or v2n != d2n - p2n:
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
        g = -n - 1 + cs.c1_ulp2_exp - e  # the grid is 2^g at scale e: the low g bits are zero
        off = (1 << g) - 1 if g > 0 else 0
        if t1n & off:
            raise TheoremViolation(_OFF_GRID % ("t1", _rounded(t1n, e, fmt).to_text()))
        if v1n & off:
            raise TheoremViolation(_OFF_GRID % ("v1", _rounded(v1n, e, fmt).to_text()))
    return e, v1n, v2n, exact, ops.rounded


def _minus_zc(x: Fpn, z: Fpn, c: Fpn, ties: str, counter: OpCounter | None) -> OpResult:
    """_minus_zc_pairs on Fpn values, for first_step and third_step."""
    fmt = z.fmt
    _check_fmt(fmt, c, x)
    if counter is not None:
        counter.rounded += 1
    xn, xe = _pair(x, z.e + c.e)  # a zero x at the scale of z*c
    e, _, r, exact = _minus_zc_pairs(xn, xe, z.sign * z.m, z.e, c.sign * c.m, c.e, fmt, ties)
    return _op_result(OpResult, (_rounded(r, e, fmt), exact))


def first_step(
    x: Fpn, z: Fpn, cs: ConstantSet, ties: str = TIES_EVEN, counter: OpCounter | None = None
) -> tuple[Fpn, bool]:
    """u = fma(x - z*C1); exact is True when no rounding occurred.

    Under the audited hypotheses exactness is a theorem, so an inexact
    flag here is a finding for the harness, not a runtime error.
    """
    return _minus_zc(x, z, cs.c1, ties, counter)


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
    c1n, c1e, c2n, c2e = cs.pairs[2:6]
    zn, ze = z.sign * z.m, z.e
    un, ue = _pair(u, ze + c1e)  # a zero u at the scale of z*C1, a zero x at u's
    xn, xe = _pair(x, ue)
    zc1, e = zn * c1n, min(xe, ue)  # x - z*C1 = d * 2^e exactly, u = un * 2^e
    if zc1:
        e = min(e, ze + c1e)
        zc1 <<= ze + c1e - e
    d, un = (xn << (xe - e)) - zc1, un << (ue - e)
    e, v1n, v2n, exact, ops = _second_step_pairs(xn, xe, zn, ze, e, d, un, c2n, c2e, cs, fmt, ties)
    if counter is not None:
        counter.rounded += ops
    return SecondStepResult(_rounded(v1n, e, fmt), _rounded(v2n, e, fmt), exact, ops, True)


def third_step(
    v1: Fpn, v2: Fpn, z: Fpn, cs: ConstantSet, ties: str = TIES_EVEN, counter: OpCounter | None = None
) -> Fpn:
    """w = o(v2 - z*C3); (v1, w) is the 2p-bit unevaluated reduced argument."""
    return _minus_zc(v2, z, cs.c3, ties, counter).value


def residual_interval(
    x: Fpn, z: Fpn, v1: Fpn, w: Fpn, cs: ConstantSet, bits: int | None = None
) -> tuple[Fraction, Fraction]:
    """Bounds on |v1 + w - (x - z*C)| from the enclosure of C.

    The paper gives no accuracy theorem for the third step, so the
    residual is measured, not asserted.  C's enclosure (6p bits by
    default) comes from the constant's memo; both ends are computed as
    integers over den * 2^-e0.
    """
    top = max(x.e, z.e, v1.e, w.e)  # a zero at the top sets no alignment
    return _residual_pairs(*_pair(x, top), *_pair(z, top), *_pair(v1, top), *_pair(w, top), cs, bits)


def _residual_pairs(
    xn: int, xe: int, zn: int, ze: int, v1n: int, v1e: int, wn: int, we: int, cs: ConstantSet, bits: int | None
) -> tuple[Fraction, Fraction]:
    """residual_interval on signed pairs: one product with C's lower bound, and
    the other end as that plus z times the narrow width (they swap for z < 0)."""
    if cs.constant is None:
        raise ValueError("synthetic constant sets have no underlying C")
    c_lo, c_hi, den = cs.constant.scaled_enclosure(6 * cs.fmt.p if bits is None else bits)
    e0 = min(xe, ze, v1e, we)
    zn <<= ze - e0
    lo = den * ((v1n << (v1e - e0)) + (wn << (we - e0)) - (xn << (xe - e0))) + zn * c_lo
    hi = lo + zn * (c_hi - c_lo)
    if hi < lo:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        lo, hi = 0, max(-lo, hi)
    elif hi < 0:
        lo, hi = -hi, -lo
    return _over(lo, den, e0), _over(hi, den, e0)


def _over(n: int, den: int, e0: int) -> Fraction:
    """A residual end n * 2^e0 / den, exactly: softfp._dyadic with no gcd
    when den is a power of two (the named constants', a --const file's); any
    other den (a non-dyadic Constant.from_enclosure) goes through Fraction."""
    if den & (den - 1):
        return _dyadic(n, e0) / den
    return _dyadic(n, e0 - den.bit_length() + 1)


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
    """Run the full pipeline at N = cs.n: extract z, first, second, and
    third steps, with every runtime theorem check on: those of the four
    stage wrappers, in their order, in one pass over the pair core, after
    extraction's own checks and one format check of C1, C2 and C3."""
    zn, ze, _, ell, s_num, s_exp, in_range = _extract(x, cs.r, cs.n, ties, None, True)
    fmt, xn, xe = x.fmt, x.sign * x.m, x.e
    _check_fmt(fmt, cs.c1, cs.c2, cs.c3)
    _, _, c1n, c1e, c2n, c2e, c3n, c3e = cs.pairs
    ue, d, un, exact1 = _minus_zc_pairs(xn, xe, zn, ze, c1n, c1e, fmt, ties)
    e, v1n, v2n, exact2, ops = _second_step_pairs(xn, xe, zn, ze, ue, d, un, c2n, c2e, cs, fmt, ties)
    we, _, wn, _ = _minus_zc_pairs(v2n, e, zn, ze, c3n, c3e, fmt, ties)
    measured = measure_residual and cs.constant is not None
    res = _residual_pairs(xn, xe, zn, ze, v1n, e, wn, we, cs, None) if measured else (None, None)
    return tuple.__new__(ReductionOutput, (
        _rounded(zn, ze, fmt), _rounded(un, ue, fmt), _rounded(v1n, e, fmt), _rounded(v2n, e, fmt),
        _rounded(wn, we, fmt), ell, _dyadic(s_num, s_exp), exact1, exact2, ops, in_range, *res,
    ))
