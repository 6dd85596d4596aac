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
and the second step counts its rounded operations (always 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .constgen import N_DEPENDENT, ConstantSet, HypothesisViolation, first_failure
from .softfp import (
    TIES_EVEN,
    Fpn,
    Format,
    OpCounter,
    PreconditionError,
    add,
    fast2mult,
    fast2sum,
    fma,
    sub,
    ulp2_exp,
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
    """|x*R| <= 2^(p-N-2) - 2^-N, exactly.

    Scaled by 2^N this is the integer inequality
    |x.m*r.m| * 2^(x.e+r.e+N) <= 2^(p-2) - 1.
    """
    a = x.m * r.m
    shift = x.e + r.e + n
    top = (1 << (x.fmt.p - 2)) - 1
    return (a << shift) <= top if shift >= 0 else a <= top << -shift


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
        return _over(self.s_num, 1, self.s_exp)


def extract_z(
    x: Fpn,
    cs: ConstantSet,
    n: int | None = None,
    ties: str = TIES_EVEN,
    counter: OpCounter | None = None,
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
    fmt = x.fmt
    r = cs.r
    if not xr_in_bounds(x, r, n):
        raise ReductionRangeError(
            f"|x*R| exceeds 2^(p-N-2) - 2^-N for N={n}; "
            f"x={x.to_text()}, R={r.to_text()}"
        )
    sigma = sigma_for(fmt, n)
    t, _ = fma(x, r, sigma, ties, counter)
    z, _ = sub(t, sigma, ties, counter)

    # diagnostics, exactly in scaled integers
    if z.is_zero():
        k = 0
        in_range = False
    else:
        shift = z.e + n
        if shift >= 0:
            k = (z.sign * z.m) << shift
        elif z.m & ((1 << -shift) - 1) == 0:
            k = (z.sign * z.m) >> -shift
        else:
            if check:
                raise TheoremViolation(f"z*2^N is not an integer: z={z.to_text()}, N={n}")
            k = 0
        in_range = z.m.bit_length() - 1 + z.e >= 1 - n
    ell = abs(k).bit_length()
    xr_exp = x.e + r.e
    xr_num = x.sign * r.sign * x.m * r.m
    if xr_exp >= z.e:
        e0 = z.e
        s_num = (xr_num << (xr_exp - e0)) - z.sign * z.m
    else:
        e0 = xr_exp
        s_num = xr_num - (z.sign * z.m << (z.e - e0))
    if check and in_range:
        if not 2 <= ell <= fmt.p - 2:
            raise TheoremViolation(f"ell={ell} outside [2, p-2] for z={z.to_text()}")
        if not s_within_half(s_num, e0, n):
            raise TheoremViolation(f"|x*R - z| = {abs(_over(s_num, 1, e0))} > 2^-(N+1)")
    return z, ZExtractInfo(k, ell, s_num, e0, in_range)


def first_step(
    x: Fpn,
    z: Fpn,
    cs: ConstantSet,
    ties: str = TIES_EVEN,
    counter: OpCounter | None = None,
) -> tuple[Fpn, bool]:
    """u = fma(x - z*C1); exact is True when no rounding occurred.

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
    x: Fpn,
    z: Fpn,
    u: Fpn,
    cs: ConstantSet,
    ties: str = TIES_EVEN,
    counter: OpCounter | None = None,
) -> SecondStepResult:
    """The 9-flop exact second reduction step.

    Runs  v1 = o(u - z*C2); (p1,p2) = Fast2Mult(z, C2);
    (t1,t2) = Fast2Sum(u, -p1); v2 = o(o(o(t1-v1)+t2)-p2)  and verifies
    the claimed exactness facts: a rounded last line, or (z != 0) t1 or v1
    off the 2^(-N-1) * ulp2(C1) grid, raises TheoremViolation.  N is cs.n,
    or z's own N' > cs.n, which the set's N-dependent hypotheses must
    cover (else HypothesisViolation).  u comes from first_step, it is not
    recomputed.  A Fast2Sum precondition failure raises TheoremViolation
    (unreachable for audited constants).
    """
    ops = OpCounter()
    c2 = cs.c2
    v1, _ = fma(-z, c2, u, ties, ops)
    try:
        p1, p2 = fast2mult(z, c2, ties, ops)
        t1, t2 = fast2sum(u, -p1, ties, ops)
    except PreconditionError as exc:
        raise TheoremViolation(f"error-free transformation failed: {exc}") from exc
    d1, ex1 = sub(t1, v1, ties, ops)
    d2, ex2 = add(d1, t2, ties, ops)
    v2, ex3 = sub(d2, p2, ties, ops)
    last_line_exact = ex1 and ex2 and ex3

    # v1 + v2 - x + z*C1 + z*C2 == 0, exactly, as integers over 2^e0
    c1 = cs.c1
    zc1, zc2 = z.e + c1.e, z.e + c2.e
    e0 = min(v1.e, v2.e, x.e, zc1, zc2)
    zm = z.sign * z.m
    exact = (
        (v1.sign * v1.m << (v1.e - e0))
        + (v2.sign * v2.m << (v2.e - e0))
        - (x.sign * x.m << (x.e - e0))
        + (zm * c1.sign * c1.m << (zc1 - e0))
        + (zm * c2.sign * c2.m << (zc2 - e0))
    ) == 0

    if not last_line_exact:
        raise TheoremViolation(
            "second-step last line rounded: "
            f"x={x.to_text()}, z={z.to_text()}"
        )
    # proof facts: for z != 0, t1 and v1 sit on the 2^(-N-1) * ulp2(C1)
    # grid (for z = 0 they are x itself, on x's grid only).  A z on the
    # 2^-N' grid with N' > cs.n is also what extraction at N' gives, as
    # |x*R - z| <= 2^(-N'-1), so the facts hold at N' if the set's do.
    if not z.is_zero():
        n = max(-z.max_quantum(), cs.n)
        if n > cs.n:
            _require_covered(cs, n)
        g = -n - 1 + ulp2_exp(c1)
        for name, val in (("t1", t1), ("v1", v1)):
            if not val.is_zero() and val.max_quantum() < g:
                raise TheoremViolation(
                    f"{name} is not a multiple of 2^(-N-1)*ulp2(C1): {val.to_text()}"
                )
    if counter is not None:
        counter.rounded += ops.rounded
    return SecondStepResult(v1, v2, exact, ops.rounded, last_line_exact)


def third_step(
    v1: Fpn,
    v2: Fpn,
    z: Fpn,
    cs: ConstantSet,
    ties: str = TIES_EVEN,
    counter: OpCounter | None = None,
) -> Fpn:
    """w = o(v2 - z*C3); (v1, w) is the 2p-bit unevaluated reduced argument."""
    return fma(-z, cs.c3, v2, ties, counter).value


def residual_interval(
    x: Fpn,
    z: Fpn,
    v1: Fpn,
    w: Fpn,
    cs: ConstantSet,
    bits: int | None = None,
) -> tuple[Fraction, Fraction]:
    """Bounds on |v1 + w - (x - z*C)| from the enclosure of C.

    The paper gives no accuracy theorem for the third step, so the
    residual is measured, not asserted.  C's enclosure (6p bits by
    default) comes from the constant's memo; both ends are computed as
    integers over den * 2^-e0.
    """
    if cs.constant is None:
        raise ValueError("synthetic constant sets have no underlying C")
    c_lo, c_hi, den = cs.constant.scaled_enclosure(bits or 6 * cs.fmt.p)
    e0 = min(x.e, z.e, v1.e, w.e)
    base = den * (
        (v1.sign * v1.m << (v1.e - e0))
        + (w.sign * w.m << (w.e - e0))
        - (x.sign * x.m << (x.e - e0))
    )
    zn = z.sign * z.m << (z.e - e0)
    lo, hi = sorted((base + zn * c_lo, base + zn * c_hi))
    if lo <= 0 <= hi:
        lo, hi = 0, max(-lo, hi)
    elif hi < 0:
        lo, hi = -hi, -lo
    return _over(lo, den, e0), _over(hi, den, e0)


def _over(n: int, den: int, e0: int) -> Fraction:
    """n * 2^e0 / den, exactly."""
    return Fraction(n << e0, den) if e0 >= 0 else Fraction(n, den << -e0)


@dataclass(frozen=True)
class ReductionOutput:
    """Everything the pipeline produced for one x, plus diagnostics."""

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


def reduce(
    x: Fpn,
    cs: ConstantSet,
    ties: str = TIES_EVEN,
    measure_residual: bool = True,
) -> ReductionOutput:
    """Run the full pipeline at N = cs.n: extract z, first, second, and
    third steps, with every runtime theorem check on."""
    z, info = extract_z(x, cs, ties=ties)
    u, exact1 = first_step(x, z, cs, ties)
    ss = second_step(x, z, u, cs, ties)
    w = third_step(ss.v1, ss.v2, z, cs, ties)
    res_lo = res_hi = None
    if measure_residual and cs.constant is not None:
        res_lo, res_hi = residual_interval(x, z, ss.v1, w, cs)
    return ReductionOutput(
        z=z,
        u=u,
        v1=ss.v1,
        v2=ss.v2,
        w=w,
        ell=info.ell,
        s=info.s,
        exact_first=exact1,
        exact_second=ss.exact,
        rounding_ops_second=ss.ops,
        in_thm_range=info.in_thm_range,
        residual_lo=res_lo,
        residual_hi=res_hi,
    )
