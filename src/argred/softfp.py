"""Generic-precision binary floating-point kernel.

Values are ``sign * m * 2**e`` with an arbitrary-precision integer
significand, so every operation here is computed exactly in integer
arithmetic and rounded once.  That makes the kernel slow but bit-exact at
any precision, which is what the verification harness needs: correct
rounding, a true fused multiply-add, ulp machinery, and the two
error-free transformations (Fast2Sum / Fast2Mult).

There are no infinities and no NaNs: overflow raises, because every
result we ever want to check is finite and a silent infinity would mask
a violated precondition.  A ``Format`` is a frozen value that holds no memo.

Trusted construction.  ``Fpn(...)`` checks and canonicalizes its fields;
``_rounded`` builds the canonical Fpn of a signed pair (n, e) without that
work, shifting n to p bits or to the quantum 2**e_min_q.  It is given only
pairs whose value is an FPN: ``_round_int`` results (rounded at or above
e_min_q and checked for overflow), zeros, and the fields of FPNs named in
error messages; ``-x`` and ``abs(x)`` copy x's fields.  Everything else,
``round_rational`` (the oracle) included, goes through ``Fpn(...)``.

Pair core.  ``_round_int`` rounds the exact n * 2**e of a signed n from its
floor n >> s, with no |n|, and returns only the rounded integer r, at the
same scale: any rounding of an integer at scale 2**e is again one, as its
quantum is at or above 2**e unless the result is n itself (the e_min_q
clamp keeps this so).  One core, ``_fma_pairs``, does every single
rounding of a*b + c: add is a*1 + b, sub a*1 + (-b), mul a*b + 0, and the
reduction's first and third steps fma(-z, C, x).  It, the EFT cores and
the reduction's pair core put a case's terms on one common scale and round
integer expressions there: exactness is r == n, and a recomposition an
integer equality.  Ops and stages build an ``Fpn`` only for what they return.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

__all__ = [
    "FORMATS",
    "Format",
    "Fpn",
    "OpCounter",
    "OpResult",
    "PreconditionError",
    "UnderflowError",
    "SINGLE",
    "DOUBLE",
    "DOUBLE_EXTENDED",
    "QUAD",
    "TIES_AWAY",
    "TIES_EVEN",
    "add",
    "fast2mult",
    "fast2sum",
    "fits_scaled",
    "fma",
    "is_representable",
    "mul",
    "round_nearest",
    "sub",
    "ulp",
    "ulp2",
    "ulp2_exp",
]

TIES_EVEN = "even"
TIES_AWAY = "away"
_TIE_MODES = (TIES_EVEN, TIES_AWAY)


class PreconditionError(ValueError):
    """A checked operation precondition does not hold."""


class UnderflowError(ArithmeticError):
    """The exact error term of a transformation falls below the quantum."""


@dataclass(frozen=True)
class Format:
    """A binary floating-point format.

    p        -- significand bits, hidden bit counted
    e_min_q  -- minimum quantum exponent: m * 2**e requires e >= e_min_q
    e_max    -- maximum value exponent, used only for overflow detection
    """

    p: int
    e_min_q: int
    e_max: int = 16383

    def __post_init__(self) -> None:
        if self.p <= 3:
            raise ValueError(f"precision must exceed 3, got p={self.p}")
        if self.e_max <= self.e_min_q:
            raise ValueError("e_max must exceed e_min_q")


SINGLE = Format(p=24, e_min_q=-149, e_max=127)
DOUBLE = Format(p=53, e_min_q=-1074, e_max=1023)
DOUBLE_EXTENDED = Format(p=64, e_min_q=-16445, e_max=16383)
QUAD = Format(p=113, e_min_q=-16494, e_max=16383)
# the presets by name, for the CLI, the harness and the constant tables
FORMATS = {"single": SINGLE, "double": DOUBLE, "double-extended": DOUBLE_EXTENDED, "quad": QUAD}


def _dyadic(n: int, e: int) -> Fraction:
    """The exact n * 2**e, with no gcd: shifting out n's trailing zeros, at
    most -e of them (a zero is 0/1), leaves the lowest terms, stored straight
    into Fraction.__slots__, ('_numerator', '_denominator') on CPython 3.10-3.13."""
    v = object.__new__(Fraction)
    if e >= 0:
        v._numerator, v._denominator = n << e, 1
    elif n:
        t = _trailing_zeros(n)
        if t > -e:
            t = -e
        v._numerator, v._denominator = n >> t, 1 << (-e - t)
    else:
        v._numerator, v._denominator = 0, 1
    return v


class Fpn:
    """One floating-point number: sign * m * 2**e in a Format.

    Construction canonicalizes eagerly (m in [2**(p-1), 2**p) for normal
    numbers, e == e_min_q for subnormals and zero), so equality is
    structural and each value has exactly one representation.  Instances
    are immutable by convention; nothing in this package mutates them.
    """

    __slots__ = ("sign", "m", "e", "fmt")

    def __init__(self, sign: int, m: int, e: int, fmt: Format):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if m < 0:
            raise ValueError("significand must be non-negative")
        p = fmt.p
        if m == 0:
            sign, e = 1, fmt.e_min_q
        else:
            bl = m.bit_length()
            if bl > p:
                d = bl - p
                if m & ((1 << d) - 1):
                    raise ValueError(f"{m}*2^{e} needs more than {p} significand bits")
                m >>= d
                e += d
                bl = p
            k = p - bl
            room = e - fmt.e_min_q
            if k > room:
                k = room
            if k > 0:
                m <<= k
                e -= k
            elif e < fmt.e_min_q:
                d = fmt.e_min_q - e
                if m & ((1 << d) - 1):
                    raise ValueError(f"{m}*2^{e} is below the quantum 2^{fmt.e_min_q}")
                m >>= d
                e = fmt.e_min_q
            if m.bit_length() - 1 + e > fmt.e_max:
                raise OverflowError(f"{m}*2^{e} exceeds the e_max={fmt.e_max} range")
        self.sign = sign
        self.m = m
        self.e = e
        self.fmt = fmt

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, fmt: Format) -> "Fpn":
        return _rounded(0, 0, fmt)

    @classmethod
    def from_int(cls, k: int, fmt: Format) -> "Fpn":
        """Exact conversion; raises if k needs more than p bits."""
        if k < 0:
            return cls(-1, -k, 0, fmt)
        return cls(1, k, 0, fmt)

    @classmethod
    def pow2(cls, k: int, fmt: Format) -> "Fpn":
        return cls(1, 1, k, fmt)

    @classmethod
    def from_fraction(cls, v: Fraction, fmt: Format) -> "Fpn":
        """Exact conversion; raises ValueError if v is not representable."""
        v = Fraction(v)
        if v == 0:
            return cls.zero(fmt)
        num, den = v.numerator, v.denominator
        if den & (den - 1):
            raise ValueError(f"{v} is not dyadic")
        return cls(1 if num > 0 else -1, abs(num), -(den.bit_length() - 1), fmt)

    @classmethod
    def from_text(cls, text: str, fmt: Format) -> "Fpn":
        """Parse '<significand> * 2^<exponent>', decimal or 0x-hex significand."""
        m = _TEXT_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse FPN from {text!r}")
        sig_s, exp_s = m.group(1), m.group(2)
        neg = sig_s.startswith("-")
        sig_s = sig_s.lstrip("+-")
        sig = int(sig_s, 16) if sig_s.lower().startswith("0x") else int(sig_s)
        return cls(-1 if neg else 1, sig, int(exp_s), fmt)

    # -- basic views --------------------------------------------------

    @property
    def value(self) -> Fraction:
        return _dyadic(self.sign * self.m, self.e)

    def is_zero(self) -> bool:
        return self.m == 0

    def is_normal(self) -> bool:
        return self.m >= (1 << (self.fmt.p - 1))

    def to_text(self, hex_sig: bool = False) -> str:
        sig = -self.m if self.sign < 0 else self.m
        if hex_sig:
            body = f"-0x{self.m:x}" if self.sign < 0 else f"0x{self.m:x}"
            return f"{body} * 2^{self.e}"
        return f"{sig} * 2^{self.e}"

    def __repr__(self) -> str:
        return f"Fpn({self.to_text()})"

    # -- exact structural operations ----------------------------------

    def __neg__(self) -> "Fpn":
        if not self.m:
            return self
        x = object.__new__(Fpn)  # the canonical fields, copied with the sign flipped
        x.sign, x.m, x.e, x.fmt = -self.sign, self.m, self.e, self.fmt
        return x

    def __abs__(self) -> "Fpn":
        return -self if self.sign < 0 else self

    def max_quantum(self) -> int:
        """Largest e' such that self = n * 2**e' for an integer n (self != 0)."""
        if self.m == 0:
            raise ValueError("zero has no maximal quantum")
        return self.e + _trailing_zeros(self.m)

    # -- equality: structural, and so by value (canonical form) ------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fpn):
            return NotImplemented
        return (
            self.sign == other.sign
            and self.m == other.m
            and self.e == other.e
            and self.fmt == other.fmt
        )

    def __hash__(self) -> int:
        return hash((self.sign, self.m, self.e, self.fmt))


_TEXT_RE = re.compile(
    r"^\s*([+-]?(?:0[xX][0-9a-fA-F]+|\d+))\s*\*\s*2\^([+-]?\d+)\s*$"
)


def _trailing_zeros(n: int) -> int:
    return (n & -n).bit_length() - 1


class OpCounter:
    """Counts rounded operations; one instance per pipeline call."""

    __slots__ = ("rounded",)

    def __init__(self) -> None:
        self.rounded = 0


class OpResult(NamedTuple):
    value: Fpn
    exact: bool


# ---------------------------------------------------------------------------
# Correct rounding
# ---------------------------------------------------------------------------


def _round_int(n: int, e: int, digits: int, fmt: Format, ties: str) -> int:
    """Round the exact value n * 2**e to a digits-bit FPN of fmt.

    Returns r, the rounded value r * 2**e at n's own scale, so the rounding
    was exact iff r == n; a zero n comes back at once.  n keeps its sign:
    n >> s is the floor, and the kernel's only tie rule rounds a tie up from
    it when it is odd (ties-even) or n > 0 (ties-away).  A result above
    fmt's range raises OverflowError, exact or not, as Fpn() does.
    """
    if not n:
        return n
    s = n.bit_length() - digits  # the low bits of n below the result's quantum
    if e + s < fmt.e_min_q:
        s = fmt.e_min_q - e
    r = n
    if s > 0:
        m = n >> s  # the floor, for either sign
        rem = n - (m << s)
        if rem:
            half = 1 << (s - 1)
            if rem > half or (rem == half and (n > 0 if ties == TIES_AWAY else m & 1)):
                m += 1
            r = m << s
    if e + s + digits > fmt.e_max and r.bit_length() - 1 + e > fmt.e_max:  # the top bit passes e_max
        Fpn(1, abs(r), e, fmt)  # raises Fpn()'s OverflowError
    return r


def _canonical(n: int, e: int, fmt: Format) -> tuple[int, int]:
    """The canonical signed pair of a nonzero n * 2**e whose value is an
    FPN of fmt: n shifted to p bits, or to the quantum 2**e_min_q."""
    d = (n if n > 0 else -n).bit_length() - fmt.p
    if e + d < fmt.e_min_q:
        d = fmt.e_min_q - e
    return (n >> d if d >= 0 else n << -d), e + d


def _rounded(n: int, e: int, fmt: Format) -> Fpn:
    """The canonical Fpn of a signed pair n * 2**e whose value is an FPN
    of fmt, such as a _round_int result, built without Fpn.__init__ (see
    the module docstring): _canonical's pair, and a zero at e_min_q."""
    sign = 1
    if n < 0:
        sign, n = -1, -n
    if n:
        n, e = _canonical(n, e, fmt)
    else:
        e = fmt.e_min_q
    x = object.__new__(Fpn)
    x.sign = sign
    x.m = n
    x.e = e
    x.fmt = fmt
    return x


def _round_ratio(num: int, den: int, digits: int, fmt: Format, ties: str) -> Fpn:
    """The Fpn nearest the exact rational num/den (den > 0) at digits bits.

    The quotient at the result's quantum goes to _round_int with two
    sticky bits below it: 00 exact, 01 below half, 10 half, 11 above.
    """
    a = num if num > 0 else -num
    t = a.bit_length() - den.bit_length()  # floor(log2(a/den)), or one above it
    if (a < den << t) if t >= 0 else (a << -t < den):
        t -= 1
    eq = max(t - digits + 1, fmt.e_min_q)
    a, d = (a << -eq, den) if eq <= 0 else (a, den << eq)
    q, r = divmod(a, d)
    half, rest = divmod(r << 1, d)
    n = q << 2 | half << 1 | (rest != 0)
    r = _round_int(n if num > 0 else -n, eq - 2, digits, fmt, ties)
    return _rounded(r >> 2, eq, fmt)


def round_nearest(
    v: Union[Fraction, int, Fpn],
    fmt: Format,
    target_p: int | None = None,
    ties: str = TIES_EVEN,
) -> Fpn:
    """Round an exact value to the target_p-bit FPN nearest v.

    Ties go to the even significand by default ("away" rounds ties away
    from zero).  The result is re-expressed canonically at fmt's full
    precision.  Overflow raises OverflowError; there are no infinities.
    """
    if ties not in _TIE_MODES:
        raise ValueError(f"unknown tie mode {ties!r}")
    digits = fmt.p if target_p is None else target_p
    if not 2 <= digits <= fmt.p:
        raise ValueError(f"target precision must be in [2, {fmt.p}], got {digits}")
    if isinstance(v, Fpn):
        return _rounded(_round_int(v.sign * v.m, v.e, digits, fmt, ties), v.e, fmt)
    if isinstance(v, int):
        return _rounded(_round_int(v, 0, digits, fmt, ties), 0, fmt)
    return _round_ratio(v.numerator, v.denominator, digits, fmt, ties)


# ---------------------------------------------------------------------------
# Rounded arithmetic (exact computation, one rounding, inexact flag)
# ---------------------------------------------------------------------------


def _check_fmt(fmt: Format, *vals: Fpn) -> None:
    """Raise ValueError unless every value is in fmt."""
    for v in vals:
        if v.fmt is not fmt and v.fmt != fmt:
            raise ValueError("operands must share a format")


def _pair(v: Fpn, e: int) -> tuple[int, int]:
    """v as a signed pair, a zero v at exponent e: an Fpn zero is stored at
    e_min_q, and the core would align the other terms down to it."""
    return (v.sign * v.m, v.e) if v.m else (0, e)


def _fma_pairs(an: int, ae: int, bn: int, be: int, cn: int, ce: int, fmt: Format, ties: str) -> tuple[int, int, int]:
    """The fused a*b + c of the signed pairs a = an * 2**ae, b = bn * 2**be
    and c = cn * 2**ce: (e, n, r) with a*b + c = n * 2**e exactly, on the
    lower of the product's scale and c's, a zero term at the other's, and
    its one rounding r * 2**e, exact iff r == n."""
    pn = an * bn
    if pn and cn:
        ep = ae + be
        if ep < ce:
            e, n = ep, pn + (cn << (ce - ep))
        else:
            e, n = ce, (pn << (ep - ce)) + cn
    elif pn:
        e, n = ae + be, pn
    else:
        e, n = ce, cn
    return e, n, _round_int(n, e, fmt.p, fmt, ties)


def _op(
    an: int, ae: int, bn: int, be: int, cn: int, ce: int, fmt: Format, ties: str, counter: OpCounter | None
) -> OpResult:
    """A public op as the fused an*bn + cn: its count, and its rounding as an OpResult."""
    if counter is not None:
        counter.rounded += 1
    e, n, r = _fma_pairs(an, ae, bn, be, cn, ce, fmt, ties)
    return tuple.__new__(OpResult, (_rounded(r, e, fmt), r == n))  # without the namedtuple's Python __new__


def add(a: Fpn, b: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> OpResult:
    fmt = a.fmt
    _check_fmt(fmt, b)
    return _op(a.sign * a.m, a.e, 1, 0, b.sign * b.m, b.e, fmt, ties, counter)


def sub(a: Fpn, b: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> OpResult:
    fmt = a.fmt
    _check_fmt(fmt, b)
    return _op(a.sign * a.m, a.e, 1, 0, -b.sign * b.m, b.e, fmt, ties, counter)


def mul(a: Fpn, b: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> OpResult:
    fmt = a.fmt
    _check_fmt(fmt, b)
    return _op(a.sign * a.m, a.e, b.sign * b.m, b.e, 0, 0, fmt, ties, counter)


def fma(a: Fpn, b: Fpn, c: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> OpResult:
    """The exact a*b + c after only one rounding."""
    fmt = a.fmt
    _check_fmt(fmt, b, c)
    return _op(a.sign * a.m, a.e, b.sign * b.m, b.e, c.sign * c.m, c.e, fmt, ties, counter)


# ---------------------------------------------------------------------------
# ulp machinery
# ---------------------------------------------------------------------------


def ulp(x: Fpn) -> Fraction:
    """Unit in the last place at full precision p.

    Canonical form makes this the stored quantum: 2**x.e, which is
    2**e_min_q for zero and subnormals.
    """
    return _dyadic(1, x.e)


def ulp2_exp(x: Fpn) -> int:
    """log2 of ulp2(x)."""
    return max(x.e - (x.fmt.p - 1), x.fmt.e_min_q)


def ulp2(x: Fpn) -> Fraction:
    """ulp(ulp(x)): the quantum of x's quantum."""
    return _dyadic(1, ulp2_exp(x))


def fits_scaled(num: int, exp: int, digits: int, fmt: Format) -> bool:
    """True iff num * 2**exp = m * 2**e with |m| < 2**digits and e >= e_min_q:
    num's odd part has at most digits bits, and exp plus its trailing zeros
    reaches e_min_q."""
    if num == 0:
        return True
    a = num if num > 0 else -num
    tz = _trailing_zeros(a)
    return exp + tz >= fmt.e_min_q and (a >> tz).bit_length() <= digits


def is_representable(v: Union[Fraction, int], digits: int, fmt: Format) -> bool:
    """True iff v = m * 2**e with |m| < 2**digits and e >= e_min_q.

    A dyadic v = num / 2**k delegates to fits_scaled(num, -k, digits, fmt).
    """
    v = Fraction(v)
    den = v.denominator
    if den & (den - 1):
        return False
    return fits_scaled(v.numerator, 1 - den.bit_length(), digits, fmt)


# ---------------------------------------------------------------------------
# Error-free transformations
# ---------------------------------------------------------------------------


def _fast2sum_scaled(an: int, bn: int, e: int, fmt: Format, ties: str, counter: OpCounter | None) -> tuple[int, int]:
    """Fast2Sum of a = an * 2**e and b = bn * 2**e on their common scale:
    (sn, en) with s = o(a + b) and err = b - o(o(a + b) - a), exact, both
    at the same scale; see fast2sum."""
    p = fmt.p
    if an and bn:
        # |a| >= |b|, or a's widest exponent, e + tz(a), reaches b's
        # narrowest, its canonical one: p-bit representations with e_a >= e_b
        a, b = (an if an > 0 else -an), (bn if bn > 0 else -bn)
        if a < b and _trailing_zeros(a) < max(b.bit_length() - p, fmt.e_min_q - e):
            raise PreconditionError(
                f"fast2sum precondition fails for {_rounded(an, e, fmt)!r}, "
                f"{_rounded(bn, e, fmt)!r}: no representations with e_a >= e_b and |a| < |b|"
            )
    sn = _round_int(an + bn, e, p, fmt, ties)
    zn = _round_int(sn - an, e, p, fmt, ties)
    en = _round_int(bn - zn, e, p, fmt, ties)
    if counter is not None:
        counter.rounded += 3
    # The three-op sequence is exact under the precondition; verify anyway.
    if sn + en != an + bn:
        raise PreconditionError(
            f"fast2sum produced a wrong error term for {_rounded(an, e, fmt)!r}, {_rounded(bn, e, fmt)!r}"
        )
    return sn, en


def _fast2mult_scaled(
    an: int, ae: int, bn: int, be: int, e: int, fmt: Format, ties: str, counter: OpCounter | None
) -> tuple[int, int]:
    """Fast2Mult of the pairs (an, ae), (bn, be) at a scale e <= ae + be
    (any e for a zero product): (hn, ln) with h = o(a*b) and low =
    fma(a, b, -h), exact, both at scale e; see fast2mult."""
    prod = an * bn
    if prod:
        prod <<= ae + be - e
    hn = _round_int(prod, e, fmt.p, fmt, ties)
    ln = _round_int(prod - hn, e, fmt.p, fmt, ties)
    if counter is not None:
        counter.rounded += 2
    if ln != prod - hn:
        raise UnderflowError(
            f"fast2mult error term of {_rounded(an, ae, fmt)!r}*{_rounded(bn, be, fmt)!r}"
            " is not representable"
        )
    return hn, ln


def fast2sum(a: Fpn, b: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> tuple[Fpn, Fpn]:
    """Rounded sum and its exact error, 3 flops.

    Requires a = 0, b = 0, |a| >= |b|, or an exponent ordering between
    some representations of a and b; raises PreconditionError otherwise
    rather than ever returning a wrong error term.
    """
    fmt = a.fmt
    _check_fmt(fmt, b)
    an, ae = _pair(a, b.e)
    bn, be = _pair(b, ae)
    e = ae if ae < be else be
    sn, en = _fast2sum_scaled(an << (ae - e), bn << (be - e), e, fmt, ties, counter)
    return _rounded(sn, e, fmt), _rounded(en, e, fmt)


def fast2mult(a: Fpn, b: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> tuple[Fpn, Fpn]:
    """Rounded product and its exact error, 2 flops.

    The fma computing a*b - h is exact exactly when that error fits p bits
    at or above 2**e_min_q, so an inexact fma raises UnderflowError (the
    error's quantum fell below 2**e_min_q).
    """
    fmt = a.fmt
    _check_fmt(fmt, b)
    e = a.e + b.e
    hn, ln = _fast2mult_scaled(a.sign * a.m, a.e, b.sign * b.m, b.e, e, fmt, ties, counter)
    return _rounded(hn, e, fmt), _rounded(ln, e, fmt)
