"""Certified enclosures of pi and ln 2, and exact rational rounding.

The enclosures are computed here, from scratch, with rigorous tails --
Machin's formula for pi and the sum 1/(k*2^k) for ln 2 -- so no external
digit table is trusted anywhere.  Both series are evaluated in scaled
integer arithmetic with floor/ceil bookkeeping, giving dyadic bounds
lo <= C <= hi of width at most 2^-bits.

``safe_round`` turns an enclosure into a correctly rounded FPN by
refining until both endpoints round identically, which terminates for
any constant that is not itself representable or a tie.  Generation
refines the same way on ``Constant.scaled_enclosure`` integers, and the
audit decides R there too, with ``round_rational``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .softfp import TIES_AWAY, TIES_EVEN, Format, Fpn, round_nearest

__all__ = [
    "AmbiguousRoundingError",
    "Constant",
    "LN2",
    "NAMED_CONSTANTS",
    "PI",
    "RealEnclosure",
    "ln2_enclosure",
    "pi_enclosure",
    "round_rational",
    "safe_round",
]


class AmbiguousRoundingError(RuntimeError):
    """Refinement never separated the endpoints (constant on the grid?)."""


@dataclass(frozen=True)
class RealEnclosure:
    """Bounds lo <= C <= hi on a positive real constant.

    ``refine(bits)`` rebuilds the enclosure from scratch at the new
    width; transformed enclosures (reciprocal, shift, scaling) chain
    their transformation through refine so safe_round can tighten any
    derived quantity.
    """

    lo: Fraction
    hi: Fraction
    bits: int
    refine: Optional[Callable[[int], "RealEnclosure"]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("enclosure bounds are crossed")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, v: Fraction) -> bool:
        return self.lo <= v <= self.hi

    def _derived(self, lo: Fraction, hi: Fraction, again: Callable) -> "RealEnclosure":
        # again(e) redoes the transformation on e, so refine chains it
        base = self.refine
        return RealEnclosure(lo, hi, self.bits, None if base is None else (lambda b: again(base(b))))

    def recip(self) -> "RealEnclosure":
        """Enclosure of 1/C for a positive C."""
        if self.lo <= 0:
            raise ValueError("reciprocal needs a positive enclosure")
        return self._derived(1 / self.hi, 1 / self.lo, RealEnclosure.recip)

    def shift(self, d: Fraction) -> "RealEnclosure":
        """Enclosure of C - d, exact."""
        return self._derived(self.lo - d, self.hi - d, lambda e: e.shift(d))

    def scale2(self, k: int) -> "RealEnclosure":
        """Enclosure of C * 2**k, exact (covers 2*pi, pi/2, ...)."""
        f = Fraction(2) ** k
        return self._derived(self.lo * f, self.hi * f, lambda e: e.scale2(k))


def _atan_recip_scaled(x: int, scale_bits: int) -> tuple[int, int]:
    """Integer bounds L <= atan(1/x) * 2**scale_bits <= U.

    Alternating series with decreasing terms: consecutive partial sums
    bracket the limit, and each scaled term is floor/ceil-bounded.
    """
    s = 1 << scale_bits
    x2 = x * x
    xp = x
    lo = hi = 0
    k = 0
    while True:
        t = s // ((2 * k + 1) * xp)
        if t == 0:
            break
        if k % 2 == 0:
            lo += t
            hi += t + 1
        else:
            lo -= t + 1
            hi -= t
        xp *= x2
        k += 1
    # remaining tail is below one scaled unit
    return lo - 1, hi + 1


def _pi_bounds_scaled(scale_bits: int) -> tuple[int, int]:
    # Machin: pi = 16*atan(1/5) - 4*atan(1/239)
    l5, u5 = _atan_recip_scaled(5, scale_bits)
    l239, u239 = _atan_recip_scaled(239, scale_bits)
    return 16 * l5 - 4 * u239, 16 * u5 - 4 * l239


def _ln2_bounds_scaled(scale_bits: int) -> tuple[int, int]:
    # ln 2 = sum_{k>=1} 1/(k*2^k); positive terms, geometric tail bound
    s = 1 << scale_bits
    lo = 0
    ups = 0
    k = 1
    while True:
        t = s // (k << k)
        if t == 0 and (s >> k) * (k + 1) < k + 1:
            # tail < sum_{j>k} 2^-j * s / j <= 2^-k * s < 1 scaled unit
            break
        lo += t
        ups += 1
        k += 1
    return lo, lo + ups + 1


def _series_enclosure(bounds, bits: int, refine) -> RealEnclosure:
    if bits < 1:
        raise ValueError("bits must be >= 1")
    guard = 16
    while True:
        w = bits + guard
        lo, hi = bounds(w)
        enc = RealEnclosure(Fraction(lo, 1 << w), Fraction(hi, 1 << w), bits, refine)
        if enc.width <= Fraction(1, 1 << bits):
            return enc
        guard *= 2


def pi_enclosure(bits: int) -> RealEnclosure:
    """Dyadic bounds on pi of width at most 2**-bits."""
    return _series_enclosure(_pi_bounds_scaled, bits, pi_enclosure)


def ln2_enclosure(bits: int) -> RealEnclosure:
    """Dyadic bounds on ln 2 of width at most 2**-bits."""
    return _series_enclosure(_ln2_bounds_scaled, bits, ln2_enclosure)


@dataclass(frozen=True)
class Constant:
    """A named positive real constant given by an enclosure generator.

    Equality and hashing see the name only, so constants with one name
    and different enclosures compare equal: the memo lives on the instance.
    """

    name: str
    enclosure: Callable[[int], RealEnclosure] = field(compare=False)
    _scaled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_enclosure(cls, name: str, enc: RealEnclosure) -> "Constant":
        gen = enc.refine if enc.refine is not None else (lambda bits: enc)
        return cls(name, gen)

    def scaled_enclosure(self, bits: int) -> tuple[int, int, int]:
        """(lo, hi, den) with lo/den <= C <= hi/den from enclosure(bits),
        computed once per bits on this instance."""
        got = self._scaled.get(bits)
        if got is None:
            enc = self.enclosure(bits)
            den = lcm(enc.lo.denominator, enc.hi.denominator)
            got = self._scaled[bits] = (enc.lo * den).numerator, (enc.hi * den).numerator, den
        return got


PI = Constant("pi", pi_enclosure)
LN2 = Constant("ln2", ln2_enclosure)
NAMED_CONSTANTS = {"pi": PI, "ln2": LN2}


_REFINE_CAP = 64


def safe_round(
    enc: RealEnclosure,
    fmt: Format,
    target_p: int | None = None,
    ties: str = TIES_EVEN,
) -> Fpn:
    """Round the enclosed constant, refining until the answer is unique."""
    return _refined(enc, lambda v: round_nearest(v, fmt, target_p, ties))


_CAPPED = "rounding still ambiguous after refinement cap; is the constant representable or exactly a tie?"


def _refined(enc: RealEnclosure, rounded: Callable):
    """rounded(C) from enc's endpoints, refining enc until they agree."""
    for _ in range(_REFINE_CAP):
        a = rounded(enc.lo)
        if a == rounded(enc.hi):
            return a
        if enc.refine is None:
            raise AmbiguousRoundingError(f"enclosure of width {enc.width} cannot be refined further")
        enc = enc.refine(enc.bits * 2)
    raise AmbiguousRoundingError(_CAPPED)


def _refined_scaled(constant: Constant, bits: int, rounded: Callable, derived: Callable):
    """_refined on the bounds b/den of constant.scaled_enclosure(bits), hi
    first (for 1/C the lower bound); derived(enc), the enclosure of the
    quantity rounded, is built only for the message."""
    for _ in range(_REFINE_CAP):
        lo, hi, den = constant.scaled_enclosure(bits)
        a = rounded(hi, den)
        if a == rounded(lo, den):
            return a
        enc = constant.enclosure(bits)
        if enc.refine is None:
            raise AmbiguousRoundingError(f"enclosure of width {derived(enc).width} cannot be refined further")
        bits *= 2
    raise AmbiguousRoundingError(_CAPPED)


def _int_nearest(num: int, den: int, ties: str) -> int:
    """num/den (den > 0) rounded to an integer."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den:
        return q + 1
    if twice == den:
        if ties == TIES_AWAY:
            return q + 1 if num >= 0 else q  # floor(-x.5) + 0 is away for negatives
        return q if q % 2 == 0 else q + 1
    return q


def round_rational(
    num: int,
    den: int,
    fmt: Format,
    target_p: int | None = None,
    ties: str = TIES_EVEN,
) -> Fpn:
    """Exact nearest rounding of num/den decided by cross-multiplication.

    This deliberately does not share the kernel's remainder-versus-half
    decision: the two floor candidates m and m+1 are compared against the
    value by cross-multiplied distances, so it can serve as a second,
    independent route to the same FPN.
    """
    if den == 0:
        raise ZeroDivisionError("round_rational with zero denominator")
    if den < 0:
        num, den = -num, -den
    if num == 0:
        return Fpn.zero(fmt)
    digits = fmt.p if target_p is None else target_p
    if not 2 <= digits <= fmt.p:
        raise ValueError(f"target precision must be in [2, {fmt.p}], got {digits}")
    if ties not in (TIES_EVEN, TIES_AWAY):
        raise ValueError(f"unknown tie mode {ties!r}")
    sign = 1 if num > 0 else -1
    a = abs(num)
    t = a.bit_length() - den.bit_length()
    if t >= 0:
        if a < den << t:
            t -= 1
    else:
        if a << -t < den:
            t -= 1
    eq = max(t - digits + 1, fmt.e_min_q)
    # candidates m, m+1 around floor(a / (den * 2^eq))
    if eq <= 0:
        m = (a << -eq) // den
        num_s, den_s = a << -eq, den
    else:
        m = a // (den << eq)
        num_s, den_s = a, den << eq
    # distance comparison: |v - m| vs |m+1 - v| with v = num_s/den_s,
    # cross-multiplied: (num_s - m*den_s) vs ((m+1)*den_s - num_s)
    below = num_s - m * den_s
    above = (m + 1) * den_s - num_s
    if below > above:
        m += 1
    elif below == above:
        if ties == TIES_AWAY or (m & 1):
            m += 1
    if m == 1 << digits:
        m >>= 1
        eq += 1
    return Fpn(sign, m, eq, fmt)
