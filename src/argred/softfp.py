"""Generic-precision binary floating-point kernel.

Values are ``sign * m * 2**e`` with an arbitrary-precision integer
significand, so every operation here is computed exactly in integer
arithmetic and rounded once.  That makes the kernel slow but bit-exact at
any precision, which is what the verification harness needs: correct
rounding, a true fused multiply-add, ulp machinery, and the two
error-free transformations (Fast2Sum / Fast2Mult).

There are no infinities and no NaNs: overflow raises, because every
result we ever want to check is finite and a silent infinity would mask
a violated precondition.

Trusted construction.  ``Fpn(...)`` checks and canonicalizes its fields;
``_canonical`` stores fields that are canonical by construction and skips
that work.  Only these results take the trusted path:

- ``Fpn.zero``: (+1, 0, e_min_q) is the canonical zero;
- ``-x`` and ``abs(x)``: flipping the sign of a canonical nonzero value
  changes neither m nor e, and -0 and abs(0) return the zero itself;
- rounding results of ``_round_scaled`` (``_round_ratio`` ends there):
  an exact zero, or a p-bit m with e_min_q <= e and e + p - 1 <= e_max
  (``_rounded``); a carry, a short or subnormal m, or an overflow goes
  through ``Fpn()``.

Everything else, ``round_rational`` (the oracle) included, goes through
``Fpn(...)``.
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

    @property
    def lam(self) -> Fraction:
        """Smallest positive subnormal, 2**e_min_q."""
        return _pow2(self.e_min_q)


SINGLE = Format(p=24, e_min_q=-149, e_max=127)
DOUBLE = Format(p=53, e_min_q=-1074, e_max=1023)
DOUBLE_EXTENDED = Format(p=64, e_min_q=-16445, e_max=16383)
QUAD = Format(p=113, e_min_q=-16494, e_max=16383)
# the presets by name, for the CLI, the harness and the constant tables
FORMATS = {"single": SINGLE, "double": DOUBLE, "double-extended": DOUBLE_EXTENDED, "quad": QUAD}


def _pow2(k: int) -> Fraction:
    if k >= 0:
        return Fraction(1 << k)
    return Fraction(1, 1 << -k)


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
        return _canonical(1, 0, fmt.e_min_q, fmt)

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
        if self.e >= 0:
            return Fraction(self.sign * self.m << self.e)
        return Fraction(self.sign * self.m, 1 << -self.e)

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
        if self.m == 0:
            return self
        return _canonical(-self.sign, self.m, self.e, self.fmt)

    def __abs__(self) -> "Fpn":
        if self.sign < 0:
            return _canonical(1, self.m, self.e, self.fmt)
        return self

    def max_quantum(self) -> int:
        """Largest e' such that self = n * 2**e' for an integer n (self != 0)."""
        if self.m == 0:
            raise ValueError("zero has no maximal quantum")
        return self.e + _trailing_zeros(self.m)

    def next_up(self) -> "Fpn":
        """Smallest representable value strictly above self."""
        fmt = self.fmt
        if self.m == 0:
            return Fpn(1, 1, fmt.e_min_q, fmt)
        if self.sign > 0:
            return Fpn(1, self.m + 1, self.e, fmt)
        if self.m == 1 << (fmt.p - 1) and self.e > fmt.e_min_q:
            return Fpn(-1, (1 << fmt.p) - 1, self.e - 1, fmt)
        if self.m == 1:
            return Fpn.zero(fmt)
        return Fpn(-1, self.m - 1, self.e, fmt)

    def next_down(self) -> "Fpn":
        return -((-self).next_up())

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


# OpResult(value, exact) without the namedtuple's Python-level __new__
_op_result = tuple.__new__


# ---------------------------------------------------------------------------
# Correct rounding
# ---------------------------------------------------------------------------


def _canonical(sign: int, m: int, e: int, fmt: Format) -> Fpn:
    """An Fpn from fields that are already canonical, without Fpn.__init__.

    Callers guarantee the invariant stated in the module docstring.
    """
    x = object.__new__(Fpn)
    x.sign = sign
    x.m = m
    x.e = e
    x.fmt = fmt
    return x


def _rounded(sign: int, m: int, e: int, fmt: Format) -> Fpn:
    """Fpn(sign, m, e, fmt) for a rounding result: a p-bit m with an
    in-range e is already canonical and stored as is; anything else
    (carry, digits < p, subnormal, overflow) goes through Fpn()."""
    p1 = fmt.p - 1
    if m >> p1 == 1 and e >= fmt.e_min_q and p1 + e <= fmt.e_max:
        return _canonical(sign, m, e, fmt)
    return Fpn(sign, m, e, fmt)


def _round_scaled(n: int, e: int, digits: int, fmt: Format, ties: str) -> OpResult:
    """Round the exact value n * 2**e to a digits-bit FPN of fmt.

    Returns the rounded number (re-expressed canonically at fmt's full
    precision) and whether the rounding was exact.
    """
    if n == 0:
        return _op_result(OpResult, (_canonical(1, 0, fmt.e_min_q, fmt), True))
    sign = 1 if n > 0 else -1
    a = n if n > 0 else -n
    top = a.bit_length() - 1 + e
    eq = top - digits + 1
    if eq < fmt.e_min_q:
        eq = fmt.e_min_q
    shift = e - eq
    if shift >= 0:
        return _op_result(OpResult, (_rounded(sign, a << shift, eq, fmt), True))
    s = -shift
    m = a >> s
    rem = a & ((1 << s) - 1)
    if rem == 0:
        return _op_result(OpResult, (_rounded(sign, m, eq, fmt), True))
    half = 1 << (s - 1)
    if rem > half:
        m += 1
    elif rem == half:
        if ties == TIES_AWAY or (m & 1):
            m += 1
    return _op_result(OpResult, (_rounded(sign, m, eq, fmt), False))


def _round_ratio(num: int, den: int, digits: int, fmt: Format, ties: str) -> OpResult:
    """Round the exact rational num/den (den > 0) to digits bits.

    The quotient at the result's quantum goes to _round_scaled with two
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
    return _round_scaled(n if num > 0 else -n, eq - 2, digits, fmt, ties)


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
        return _round_scaled(v.sign * v.m, v.e, digits, fmt, ties).value
    if isinstance(v, int):
        return _round_scaled(v, 0, digits, fmt, ties).value
    return _round_ratio(v.numerator, v.denominator, digits, fmt, ties).value


# ---------------------------------------------------------------------------
# Rounded arithmetic (exact computation, one rounding, inexact flag)
# ---------------------------------------------------------------------------


_FMT_MISMATCH = "operands must share a format"

# The rounded ops below inline the format check and the counter bump, and
# align the two addends by shifting only the one with the larger exponent:
# they run a dozen times per reduction.


def add(a: Fpn, b: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> OpResult:
    fmt = a.fmt
    if b.fmt is not fmt and b.fmt != fmt:
        raise ValueError(_FMT_MISMATCH)
    if counter is not None:
        counter.rounded += 1
    ea, eb = a.e, b.e
    if ea >= eb:
        return _round_scaled((a.sign * a.m << (ea - eb)) + b.sign * b.m, eb, fmt.p, fmt, ties)
    return _round_scaled(a.sign * a.m + (b.sign * b.m << (eb - ea)), ea, fmt.p, fmt, ties)


def sub(a: Fpn, b: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> OpResult:
    fmt = a.fmt
    if b.fmt is not fmt and b.fmt != fmt:
        raise ValueError(_FMT_MISMATCH)
    if counter is not None:
        counter.rounded += 1
    ea, eb = a.e, b.e
    if ea >= eb:
        return _round_scaled((a.sign * a.m << (ea - eb)) - b.sign * b.m, eb, fmt.p, fmt, ties)
    return _round_scaled(a.sign * a.m - (b.sign * b.m << (eb - ea)), ea, fmt.p, fmt, ties)


def mul(a: Fpn, b: Fpn, ties: str = TIES_EVEN, counter: OpCounter | None = None) -> OpResult:
    fmt = a.fmt
    if b.fmt is not fmt and b.fmt != fmt:
        raise ValueError(_FMT_MISMATCH)
    if counter is not None:
        counter.rounded += 1
    return _round_scaled(a.sign * b.sign * a.m * b.m, a.e + b.e, fmt.p, fmt, ties)


def fma(
    a: Fpn,
    b: Fpn,
    c: Fpn,
    ties: str = TIES_EVEN,
    counter: OpCounter | None = None,
) -> OpResult:
    """The exact a*b + c after only one rounding."""
    fmt = a.fmt
    if (b.fmt is not fmt and b.fmt != fmt) or (c.fmt is not fmt and c.fmt != fmt):
        raise ValueError(_FMT_MISMATCH)
    if counter is not None:
        counter.rounded += 1
    ep, ec = a.e + b.e, c.e
    if ep >= ec:
        n = (a.sign * b.sign * a.m * b.m << (ep - ec)) + c.sign * c.m
        return _round_scaled(n, ec, fmt.p, fmt, ties)
    n = a.sign * b.sign * a.m * b.m + (c.sign * c.m << (ec - ep))
    return _round_scaled(n, ep, fmt.p, fmt, ties)


# ---------------------------------------------------------------------------
# ulp machinery
# ---------------------------------------------------------------------------


def ulp(x: Fpn) -> Fraction:
    """Unit in the last place at full precision p.

    Canonical form makes this the stored quantum: 2**x.e, which is
    2**e_min_q for zero and subnormals.
    """
    return _pow2(x.e)


def ulp2_exp(x: Fpn) -> int:
    """log2 of ulp2(x)."""
    return max(x.e - (x.fmt.p - 1), x.fmt.e_min_q)


def ulp2(x: Fpn) -> Fraction:
    """ulp(ulp(x)): the quantum of x's quantum."""
    return _pow2(ulp2_exp(x))


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


def _fast2sum_pre(a: Fpn, b: Fpn) -> bool:
    # x = 0, or y = 0, or |x| >= |y|, or x and y admit representations
    # n_x*2^(e_x), n_y*2^(e_y) with p-bit n and e_x >= e_y; the widest
    # exponent of a is a.e + tz(a.m) and the narrowest of b is b.e.
    if a.m == 0 or b.m == 0:
        return True
    da, db = a.e, b.e
    if da >= db:
        if a.m << (da - db) >= b.m:
            return True
    elif a.m >= b.m << (db - da):
        return True
    return a.e + _trailing_zeros(a.m) >= b.e


def fast2sum(
    a: Fpn,
    b: Fpn,
    ties: str = TIES_EVEN,
    counter: OpCounter | None = None,
) -> tuple[Fpn, Fpn]:
    """Rounded sum and its exact error, 3 flops.

    Requires a = 0, b = 0, |a| >= |b|, or an exponent ordering between
    some representations of a and b; raises PreconditionError otherwise
    rather than ever returning a wrong error term.
    """
    if b.fmt is not a.fmt and b.fmt != a.fmt:
        raise ValueError(_FMT_MISMATCH)
    if not _fast2sum_pre(a, b):
        raise PreconditionError(
            f"fast2sum precondition fails for {a!r}, {b!r}: "
            "no representations with e_a >= e_b and |a| < |b|"
        )
    s, _ = add(a, b, ties, counter)
    z, _ = sub(s, a, ties, counter)
    err, _ = sub(b, z, ties, counter)
    # The three-op sequence is exact under the precondition; verify anyway.
    e0 = min(a.e, b.e, s.e, err.e)
    lhs = (s.sign * s.m << (s.e - e0)) + (err.sign * err.m << (err.e - e0))
    rhs = (a.sign * a.m << (a.e - e0)) + (b.sign * b.m << (b.e - e0))
    if lhs != rhs:
        raise PreconditionError(
            f"fast2sum produced a wrong error term for {a!r}, {b!r}"
        )
    return s, err


def fast2mult(
    a: Fpn,
    b: Fpn,
    ties: str = TIES_EVEN,
    counter: OpCounter | None = None,
) -> tuple[Fpn, Fpn]:
    """Rounded product and its exact error, 2 flops.

    The fma computing a*b - h is exact exactly when that error fits p bits
    at or above 2**e_min_q, so an inexact fma raises UnderflowError (the
    error's quantum fell below 2**e_min_q).
    """
    h, _ = mul(a, b, ties, counter)  # raises on a format mismatch
    low, exact = fma(a, b, -h, ties, counter)
    if not exact:
        raise UnderflowError(f"fast2mult error term of {a!r}*{b!r} is not representable")
    return h, low
