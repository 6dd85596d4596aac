"""Constant-set generation and audit for the reduction pipeline.

A ConstantSet bundles, for one constant C and one format: R ~ 1/C at
full precision, C1 ~ 1/R with its last q significand bits zeroed, C2 the
rounded remainder of C - C1 on the 8*ulp2(C1) grid, and C3 mopping up
C - C1 - C2.  The theorems' hypotheses are stated once, in HYPOTHESES:
generation raises on the first one a set fails, ``extract_z`` and
``second_step`` ask the N-dependent ones above a set's own N, ``audit``
reports every one, and the general-q sweeps ask the first step's rules
on C1 of their own C1.

Generation rounds R, C2 and C3 from the integers of
``Constant.scaled_enclosure(3p)``; audit's "R is nearest(1/C)" entry
rounds the same enclosure by the independent ``Fraction`` route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .realnum import Constant, RealEnclosure, _int_nearest, _refined_scaled, round_rational, safe_round
from .softfp import FORMATS, TIES_EVEN, Format, Fpn, _round_ratio, ulp2_exp

__all__ = [
    "AuditReport",
    "C1_BOUND_Q",
    "C1_NOT_POW2",
    "ConstantSet",
    "HYPOTHESES",
    "Hypothesis",
    "HypothesisCheck",
    "HypothesisViolation",
    "N_DEPENDENT",
    "RC1_AT_MOST_1",
    "audit",
    "first_failure",
    "format_label",
    "format_table",
    "gen_constants",
    "nearest_c1",
    "recip_ratio",
    "set_to_record",
    "synthetic_set",
]

def format_label(fmt: Format) -> str:
    """The name of the preset equal to fmt, else p<p>."""
    return next((label for label, f in FORMATS.items() if f == fmt), f"p{fmt.p}")


class HypothesisViolation(ValueError):
    """A theorem hypothesis fails for the requested constant set."""


@dataclass(frozen=True)
class ConstantSet:
    """The tuple (C identity, N, q, R, C1, C2, C3) for one format."""

    constant: Optional[Constant]
    fmt: Format
    n: int
    q: int
    r: Fpn
    c1: Fpn
    c2: Fpn
    c3: Fpn

    @property
    def c_id(self) -> str:
        return self.constant.name if self.constant is not None else "synthetic"

    @property
    def e_r(self) -> int:
        """The exponent with 2**e_r < R < 2**(e_r + 1)."""
        if self.r.m & (self.r.m - 1) == 0:
            raise ValueError("R is a power of two; e_r is undefined")
        return self.r.m.bit_length() - 1 + self.r.e

    def rc1_minus_1(self) -> Fraction:
        """delta = R*C1 - 1, exactly."""
        return self.r.value * self.c1.value - 1

    @cached_property
    def pairs(self) -> tuple[int, ...]:
        """R, C1, C2 and C3 as flat signed (n, e) pairs, read once per instance."""
        return tuple(f for v in (self.r, self.c1, self.c2, self.c3) for f in (v.sign * v.m, v.e))

    @cached_property
    def c1_ulp2_exp(self) -> int:
        """ulp2_exp(C1), read once per instance: the second step's grid is 2^(-N-1) * ulp2(C1)."""
        return ulp2_exp(self.c1)


def recip_ratio(x: Fpn) -> tuple[int, int]:
    """1/x as an exact integer ratio (num, den), x > 0."""
    if x.e < 0:
        return 1 << -x.e, x.m
    return 1, x.m << x.e


def _is_pow2(m: int) -> bool:
    return m & (m - 1) == 0


def nearest_c1(r: Fpn, q: int, ties: str = TIES_EVEN) -> Fpn:
    """1/R rounded to nearest at p - q bits under `ties`, by the oracle
    round_rational: audit and the sweeps ask this of C1, while generation
    rounds C1 with the kernel."""
    return round_rational(*recip_ratio(r), r.fmt, r.fmt.p - q, ties)


# ---------------------------------------------------------------------------
# the hypotheses, and generation
# ---------------------------------------------------------------------------

# where audit applies an entry: the paper states some theorems for q = 2
# only, and the C - C1 bound also needs a real constant
ANY_Q, Q2, Q2_REAL = "any q", "q = 2", "q = 2, real C"
# what generation has built when it asks an entry: the parameters and R,
# or also the terms C1 and C2; BUILT entries state how generation builds R
# and C1, so only audit asks them
PARAMS, TERMS, BUILT = "params", "terms", "built"


class Hypothesis(NamedTuple):
    """One hypothesis of the paper's theorems, stated once for every caller.

    ``holds(cs, n)`` decides it exactly at N = n from the set's plain
    values (fmt, q, r, c1, c2; the constant in scope Q2_REAL only).  An
    entry with ``k`` states C1 >= 2^k(p, N, q) * lambda.  ``detail`` is
    audit's note, a str.format template over p, n, q, c1 (its text),
    delta (R*C1 - 1) and bound (k + e_min_q, the bound's exponent).
    """

    theorem: str                 # the theorem, as audit labels it
    text: str
    holds: Callable[[ConstantSet, int], bool]
    stage: str = PARAMS
    scope: str = ANY_Q
    n_dependent: bool = False
    required: bool = True
    detail: str = ""
    k: Optional[Callable[[int, int, int], int]] = None

    def __str__(self) -> str:
        return f"{self.text} ({self.theorem.replace('-', ' ')})"


def _c1_at_least(theorem, text, k, scope=ANY_Q, detail="vs 2^{bound}", n_dependent=True) -> Hypothesis:
    """The entry C1 >= 2^k * lambda.  lambda = 2^e_min_q, so C1 > 0 meets
    it exactly when its leading bit is at 2^(k + e_min_q) or above."""

    def holds(cs: ConstantSet, n: int) -> bool:
        c1 = cs.c1
        top = c1.m.bit_length() - 1 + c1.e - cs.fmt.e_min_q  # 2^top <= C1 / lambda < 2^(top+1)
        return c1.sign > 0 and c1.m > 0 and top >= k(cs.fmt.p, n, cs.q)

    return Hypothesis(theorem, text, holds, TERMS, scope, n_dependent, detail=detail, k=k)


def _pow2_minus_n_is_fpn(cs: ConstantSet, n: int) -> bool:
    return -n >= cs.fmt.e_min_q


def _c1_is_nearest(cs: ConstantSet, n: int) -> bool:
    return cs.c1 == nearest_c1(cs.r, cs.q)


def _c1_not_pow2(cs: ConstantSet, n: int) -> bool:
    return not _is_pow2(cs.c1.m)


def _c2_within_4_ulp(cs: ConstantSet, n: int) -> bool:
    # |C2| = m * 2^e against 4 ulp(C1) = 2^k
    c2, k = cs.c2, cs.c1.e + 2
    return c2.m << max(c2.e - k, 0) <= 1 << max(k - c2.e, 0)


def _c2_on_grid(cs: ConstantSet, n: int) -> bool:
    # None: generation could not represent C2
    c2 = cs.c2
    return c2 is not None and (c2.is_zero() or c2.max_quantum() >= 3 + ulp2_exp(cs.c1))


# The general-q first step's rules on C1, which the general-q sweeps also
# ask of a C1 rounded under their own tie rule, and the appendix's extra
# hypothesis R*C1 <= 1.
C1_NOT_POW2 = Hypothesis("first-step(q)", "C1 is not exactly a power of 2", _c1_not_pow2, TERMS)
C1_BOUND_Q = _c1_at_least(
    "first-step(q)", "C1 >= 2^(p-q+max(1,N-1)) * lambda", lambda p, n, q: p - q + max(1, n - 1),
    detail="C1={c1} vs 2^{bound}",
)
RC1_AT_MOST_1 = Hypothesis(
    "first-step(RC1<=1)", "R * C1 <= 1", lambda cs, n: cs.rc1_minus_1() <= 0, TERMS,
    required=False, detail="R*C1 - 1 = {delta}",
)

HYPOTHESES = (
    Hypothesis("z-extraction", "p > 3", lambda cs, n: cs.fmt.p > 3, detail="p={p}"),
    Hypothesis(
        "z-extraction", "R is a positive normal p-bit FPN", lambda cs, n: cs.r.sign > 0 and cs.r.is_normal()
    ),
    Hypothesis("z-extraction", "2^-N is a FPN", _pow2_minus_n_is_fpn, n_dependent=True, detail="N={n}"),
    Hypothesis("first-step(q)", "2 <= q < p-1", lambda cs, n: 2 <= cs.q < cs.fmt.p - 1, detail="q={q}"),
    Hypothesis("first-step(q)", "C1 is nearest(1/R) at p-q bits", _c1_is_nearest, BUILT),
    C1_NOT_POW2,
    C1_BOUND_Q,
    Hypothesis("first-step(q=2)", "C1 is nearest(1/R) at p-2 bits", _c1_is_nearest, BUILT, Q2),
    Hypothesis("first-step(q=2)", "C1 is not exactly a power of 2", _c1_not_pow2, TERMS, Q2),
    _c1_at_least("first-step(q=2)", "C1 >= 2^(p+max(-1,N)) * lambda", lambda p, n, q: p + max(-1, n), Q2),
    Hypothesis("first-step(q=2)", "2^-N is a FPN", _pow2_minus_n_is_fpn, scope=Q2, n_dependent=True),
    Hypothesis("second-step", "p > 4", lambda cs, n: cs.fmt.p > 4, scope=Q2),
    Hypothesis(
        "second-step", "2^-N is a normal p-bit FPN", lambda cs, n: -n >= cs.fmt.e_min_q + cs.fmt.p - 1,
        scope=Q2, n_dependent=True, detail="N={n}",
    ),
    _c1_at_least(
        "second-step", "C1 >= 2^(p+max(-1,p+N-2)) * lambda", lambda p, n, q: p + max(-1, p + n - 2), Q2
    ),
    Hypothesis("second-step", "C2 is a FPN and an integer multiple of 8 ulp2(C1)", _c2_on_grid, TERMS, Q2),
    Hypothesis("second-step", "|C2| <= 4 ulp(C1)", _c2_within_4_ulp, TERMS, Q2),
    Hypothesis(
        "c1-distance", "R is nearest(1/C) at p bits",
        lambda cs, n: cs.r == safe_round(cs.constant.memo_enclosure(3 * cs.fmt.p).recip(), cs.fmt),
        BUILT, Q2_REAL,
    ),
    _c1_at_least("c1-distance", "C1 >= 2^(p-1) * lambda", lambda p, n, q: p - 1, Q2_REAL, "", False),
    RC1_AT_MOST_1,
)
# Each bounds N from above, so a set built at N covers every N' <= N.
N_DEPENDENT = tuple(h for h in HYPOTHESES if h.required and h.n_dependent)
# A generated set serves every step of the pipeline whatever its q, so the
# q = 2 theorems' entries are required too (audit reports them n/a at
# q != 2, where the paper does not state them).
_REQUIRED = {s: tuple(h for h in HYPOTHESES if h.required and h.stage == s) for s in (PARAMS, TERMS)}


def first_failure(cs: ConstantSet, n: int, hypotheses) -> Hypothesis | None:
    """The first of `hypotheses` that fails for the set at N = n, or None."""
    return next((h for h in hypotheses if not h.holds(cs, n)), None)


def _require(cs: ConstantSet, stage: str) -> None:
    h = first_failure(cs, cs.n, _REQUIRED[stage])
    if h is not None:
        raise HypothesisViolation(f"{h} fails for N={cs.n}, q={cs.q}")


def _minus(n: int, den: int, m: int, e: int, k: int = 0) -> tuple[int, int]:
    """(num, d) with num/d = (n/den - m*2**e) / 2**k exactly, d > 0."""
    e -= k
    s = min(-k, e)  # the lower exponent of the two terms, n/den * 2^-k and m * 2^e
    num = (n << (-k - s)) - (m * den << (e - s))
    return (num << s, den) if s >= 0 else (num, den << -s)


def _generate(
    constant: Optional[Constant], fmt: Format, n: int, q: int, r: Fpn | None = None, c2: Fpn | None = None
) -> ConstantSet:
    # the parameters and R are checked before C1 and C2 are built from them
    p, bits = fmt.p, 3 * fmt.p
    if constant is not None:
        if constant.scaled_enclosure(bits)[0] <= 0:
            raise ValueError("reciprocal needs a positive enclosure")
        r = _refined_scaled(constant, bits, lambda b, den: _round_ratio(den, b, p, fmt, TIES_EVEN), RealEnclosure.recip)
    _require(ConstantSet(constant, fmt, n, q, r, None, None, None), PARAMS)

    c1 = _round_ratio(*recip_ratio(r), p - q, fmt, TIES_EVEN)
    if constant is not None:
        k8 = 3 + ulp2_exp(c1)  # log2 of 8*ulp2(C1); C2 = k2 * 2^k8
        k2 = _refined_scaled(
            constant, bits, lambda b, den: _int_nearest(*_minus(b, den, c1.m, c1.e, k8), TIES_EVEN),
            lambda enc: enc.shift(c1.value).scale2(-k8),
        )
        try:
            c2 = Fpn(1 if k2 >= 0 else -1, abs(k2), k8, fmt)
        except (ValueError, OverflowError):
            c2 = None  # not a FPN, which the C2 grid entry reports
    elif c2 is None:
        c2 = Fpn.zero(fmt)
    _require(ConstantSet(constant, fmt, n, q, r, c1, c2, None), TERMS)
    if constant is None:
        return ConstantSet(constant, fmt, n, q, r, c1, c2, Fpn.zero(fmt))
    # C3 carries p-q significant bits, like C1: that is the only
    # construction that reproduces all published table values.
    e0 = min(c1.e, k8)
    s = (c1.m << (c1.e - e0)) + (k2 << (k8 - e0))  # C1 + C2 = s * 2^e0
    c3 = _refined_scaled(
        constant, bits, lambda b, den: _round_ratio(*_minus(b, den, s, e0), p - q, fmt, TIES_EVEN),
        lambda enc: enc.shift(c1.value + c2.value),
    )
    return ConstantSet(constant, fmt, n, q, r, c1, c2, c3)


def gen_constants(constant: Constant, fmt: Format, n: int = 0, q: int = 2) -> ConstantSet:
    """Build the constant set for C in fmt, table parameter N, q zeroed bits.

    R = nearest(1/C) at p bits, C1 = nearest(1/R) at p-q bits, C2 on the
    8*ulp2(C1) grid with integer rounding ties-to-even, C3 = nearest
    (C - C1 - C2) at p bits.  Raises HypothesisViolation naming the
    first entry of HYPOTHESES the set fails.
    """
    return _generate(constant, fmt, n, q)


def synthetic_set(r: Fpn, n: int = 0, q: int = 2, c2: Fpn | None = None) -> ConstantSet:
    """A set with no underlying real constant, for small-precision sweeps.

    C1 follows from R; C2 defaults to zero (a multiple of anything) and
    may be any FPN on the 8*ulp2(C1) grid with |C2| <= 4*ulp(C1).
    """
    return _generate(None, r.fmt, n, q, r, c2)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCheck:
    theorem: str
    hypothesis: str
    holds: bool
    detail: str = ""
    applicable: bool = True
    required: bool = True


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[HypothesisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable and c.required)

    def failed_checks(self) -> list[HypothesisCheck]:
        return [c for c in self.checks if c.applicable and c.required and not c.holds]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            if not c.applicable:
                status = "n/a "
            elif c.holds:
                status = "ok  "
            else:
                status = "FAIL" if c.required else "note"
            note = "" if c.required else " (informational)"
            detail = f"  [{c.detail}]" if c.detail else ""
            out.append(f"{status} {c.theorem}: {c.hypothesis}{note}{detail}")
        return out


def audit(cs: ConstantSet) -> AuditReport:
    """Evaluate every entry of HYPOTHESES for the set at N = cs.n, exactly.

    Entries outside their scope (the q = 2 first step, the second step
    and the C - C1 bound when q != 2; the C - C1 bound for a synthetic
    set) are reported not applicable and not evaluated.  The appendix
    constraint R*C1 <= 1 is reported but informational: sets that fail
    it are still valid for the q = 2 theorems.
    """
    fmt, n, q = cs.fmt, cs.n, cs.q
    in_scope = {ANY_Q: True, Q2: q == 2, Q2_REAL: q == 2 and cs.constant is not None}
    values = {"p": fmt.p, "n": n, "q": q, "c1": cs.c1.to_text(), "delta": cs.rc1_minus_1()}
    checks = []
    for h in HYPOTHESES:
        applicable = in_scope[h.scope]
        bound = None if h.k is None else h.k(fmt.p, n, q) + fmt.e_min_q
        checks.append(
            HypothesisCheck(
                h.theorem,
                h.text,
                not applicable or h.holds(cs, n),
                h.detail.format(bound=bound, **values),
                applicable,
                h.required,
            )
        )
    return AuditReport(tuple(checks))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def set_to_record(cs: ConstantSet) -> dict:
    """JSON-ready record in the documented schema."""
    return {
        "constant": cs.c_id,
        "precision": format_label(cs.fmt),
        "N": cs.n,
        "q": cs.q,
        "R": cs.r.to_text(),
        "C1": cs.c1.to_text(),
        "C2": cs.c2.to_text(),
        "C3": cs.c3.to_text(),
    }


def format_table(sets: list[ConstantSet]) -> str:
    """Rows R, C1, C2, C3 against one column per format, table style."""
    headers = ["Precision"] + [format_label(cs.fmt) for cs in sets]
    rows = [headers]
    for label, pick in (("R", "r"), ("C1", "c1"), ("C2", "c2"), ("C3", "c3")):
        rows.append([label] + [getattr(cs, pick).to_text() for cs in sets])
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
