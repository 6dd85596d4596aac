"""Constant-set generation and audit for the reduction pipeline.

A ConstantSet bundles, for one constant C and one format: R ~ 1/C at
full precision, C1 ~ 1/R with its last q significand bits zeroed, C2 the
rounded remainder of C - C1 on the 8*ulp2(C1) grid, and C3 mopping up
C - C1 - C2.  Every generated set is checked against the exactness
hypotheses it will be used under; violations raise with the offending
hypothesis named, and ``audit`` re-evaluates all of them exactly in
integer arithmetic for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .realnum import Constant, round_rational, round_to_int, safe_round
from .softfp import Format, Fpn, ulp, ulp2

__all__ = [
    "AdjustResult",
    "AuditReport",
    "ConstantSet",
    "HypothesisCheck",
    "HypothesisViolation",
    "adjust_r_for_rc1_le_1",
    "audit",
    "format_label",
    "format_table",
    "gen_constants",
    "n_hypothesis_failure",
    "recip_ratio",
    "set_to_record",
]

PRESET_LABELS = {
    (24, -149): "single",
    (53, -1074): "double",
    (64, -16445): "double-extended",
    (113, -16494): "quad",
}


def format_label(fmt: Format) -> str:
    return PRESET_LABELS.get((fmt.p, fmt.e_min_q), f"p{fmt.p}")


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


def recip_ratio(x: Fpn) -> tuple[int, int]:
    """1/x as an exact integer ratio (num, den), x > 0."""
    if x.e < 0:
        return 1 << -x.e, x.m
    return 1, x.m << x.e


def _is_pow2(m: int) -> bool:
    return m & (m - 1) == 0


def _c2_grid_exp(c1: Fpn) -> int:
    """log2 of 8*ulp2(C1)."""
    fmt = c1.fmt
    return 3 + max(c1.e - (fmt.p - 1), fmt.e_min_q)


def _build_first_terms(r: Fpn, fmt: Format, q: int) -> Fpn:
    num, den = recip_ratio(r)
    return round_rational(num, den, fmt, fmt.p - q)


def n_hypothesis_failure(c1: Fpn, n: int) -> str | None:
    """The first N-dependent generation hypothesis that fails at N, or None.
    Each bounds N from above, so one that holds at N holds below it."""
    fmt = c1.fmt
    p = fmt.p
    if -n < fmt.e_min_q:
        return "2^-N is a FPN"
    top = c1.m.bit_length() - 1 + c1.e - fmt.e_min_q  # C1 >= 2^k*lambda <=> top >= k
    if top < p + max(-1, n):
        return "C1 >= 2^(p+max(-1,N)) * lambda (first step)"
    if top < p + max(-1, p + n - 2):
        return "C1 >= 2^(p+max(-1,p+N-2)) * lambda (second step)"
    return None


def _generate(
    constant: Optional[Constant],
    fmt: Format,
    n: int,
    q: int,
    r_override: Fpn | None = None,
    c2: Fpn | None = None,
) -> ConstantSet:
    p = fmt.p
    if p <= 4:
        raise HypothesisViolation("p > 4 (second-step theorem)")
    if not 2 <= q < p - 1:
        raise HypothesisViolation(f"2 <= q < p-1 fails for q={q}")

    enc = None
    if constant is not None:
        enc = constant.enclosure(3 * p)

    if r_override is not None:
        r = r_override
    else:
        if enc is None:
            raise ValueError("synthetic sets need an explicit R")
        r = safe_round(enc.recip(), fmt)
    if r.sign < 0 or not r.is_normal():
        raise HypothesisViolation("R is a positive normal p-bit FPN")

    c1 = _build_first_terms(r, fmt, q)
    if _is_pow2(c1.m):
        raise HypothesisViolation("C1 is not exactly a power of 2")
    if not c1.is_normal() or c1.m & ((1 << q) - 1):
        raise HypothesisViolation(f"C1 has its last {q} significand bits at zero")

    why = n_hypothesis_failure(c1, n)
    if why is not None:
        raise HypothesisViolation(f"{why} fails for N={n}")

    if enc is not None:
        k8 = _c2_grid_exp(c1)
        k2 = round_to_int(enc.shift(c1.value).scale2(-k8))
        try:
            c2 = Fpn.from_fraction(Fraction(k2) * Fraction(2) ** k8, fmt)
        except (ValueError, OverflowError) as exc:
            raise HypothesisViolation("C2 is a FPN") from exc
    elif c2 is None:
        c2 = Fpn.zero(fmt)
    elif (c2.value / Fraction(2) ** _c2_grid_exp(c1)).denominator != 1:
        raise HypothesisViolation("C2 is an integer multiple of 8 ulp2(C1)")
    if abs(c2.value) > 4 * ulp(c1):
        raise HypothesisViolation("|C2| <= 4 ulp(C1)")
    # C3 carries p-q significant bits, like C1: that is the only
    # construction that reproduces all published table values.
    c3 = Fpn.zero(fmt) if enc is None else safe_round(enc.shift(c1.value + c2.value), fmt, p - q)

    return ConstantSet(constant, fmt, n, q, r, c1, c2, c3)


def gen_constants(constant: Constant, fmt: Format, n: int = 0, q: int = 2) -> ConstantSet:
    """Build the constant set for C in fmt, table parameter N, q zeroed bits.

    R = nearest(1/C) at p bits, C1 = nearest(1/R) at p-q bits, C2 on the
    8*ulp2(C1) grid with integer rounding ties-to-even, C3 = nearest
    (C - C1 - C2) at p bits.  Raises HypothesisViolation naming the
    failed bullet if the set cannot support the exactness theorems.
    """
    return _generate(constant, fmt, n, q)


def synthetic_set(
    r: Fpn,
    n: int = 0,
    q: int = 2,
    c2: Fpn | None = None,
) -> ConstantSet:
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
    """Evaluate every static theorem hypothesis for the set at N = cs.n,
    exactly.

    Theorems stated for q = 2 (the q=2 first step, the second step, and
    the C - C1 bound) are marked not applicable when q != 2.  The
    appendix constraint R*C1 <= 1 is reported but informational: sets
    that fail it are still valid for the q = 2 theorems.
    """
    n = cs.n
    fmt = cs.fmt
    p = fmt.p
    lam = fmt.lam
    q2 = cs.q == 2
    checks: list[HypothesisCheck] = []

    def chk(theorem, hypothesis, holds, detail="", applicable=True, required=True):
        checks.append(HypothesisCheck(theorem, hypothesis, bool(holds), detail, applicable, required))

    r_pos_normal = cs.r.sign > 0 and cs.r.is_normal()
    c1_expected = _build_first_terms(cs.r, fmt, cs.q)
    c1_ok = cs.c1 == c1_expected
    c1_not_pow2 = not _is_pow2(cs.c1.m)

    # z extraction
    chk("z-extraction", "p > 3", p > 3, f"p={p}")
    chk("z-extraction", "R is a positive normal p-bit FPN", r_pos_normal)
    chk("z-extraction", "2^-N is a FPN", -n >= fmt.e_min_q, f"N={n}")

    # first step, general q
    chk("first-step(q)", "2 <= q < p-1", 2 <= cs.q < p - 1, f"q={cs.q}")
    chk("first-step(q)", "C1 is nearest(1/R) at p-q bits", c1_ok)
    chk("first-step(q)", "C1 is not exactly a power of 2", c1_not_pow2)
    bound1 = Fraction(2) ** (p - cs.q + max(1, n - 1)) * lam
    chk(
        "first-step(q)",
        "C1 >= 2^(p-q+max(1,N-1)) * lambda",
        cs.c1.value >= bound1,
        f"C1={cs.c1.to_text()} vs 2^{p - cs.q + max(1, n - 1) + fmt.e_min_q}",
    )

    # first step, q = 2
    chk("first-step(q=2)", "C1 is nearest(1/R) at p-2 bits", c1_ok, applicable=q2)
    chk("first-step(q=2)", "C1 is not exactly a power of 2", c1_not_pow2, applicable=q2)
    bound3 = Fraction(2) ** (p + max(-1, n)) * lam
    chk(
        "first-step(q=2)",
        "C1 >= 2^(p+max(-1,N)) * lambda",
        cs.c1.value >= bound3,
        f"vs 2^{p + max(-1, n) + fmt.e_min_q}",
        applicable=q2,
    )
    chk("first-step(q=2)", "2^-N is a FPN", -n >= fmt.e_min_q, applicable=q2)

    # second step
    chk("second-step", "p > 4", p > 4, applicable=q2)
    chk(
        "second-step",
        "2^-N is a normal p-bit FPN",
        -n >= fmt.e_min_q + p - 1,
        f"N={n}",
        applicable=q2,
    )
    bound6 = Fraction(2) ** (p + max(-1, p + n - 2)) * lam
    chk(
        "second-step",
        "C1 >= 2^(p+max(-1,p+N-2)) * lambda",
        cs.c1.value >= bound6,
        f"vs 2^{p + max(-1, p + n - 2) + fmt.e_min_q}",
        applicable=q2,
    )
    grid = Fraction(2) ** _c2_grid_exp(cs.c1)
    chk(
        "second-step",
        "C2 is a FPN and an integer multiple of 8 ulp2(C1)",
        (cs.c2.value / grid).denominator == 1,
        applicable=q2,
    )
    chk(
        "second-step",
        "|C2| <= 4 ulp(C1)",
        abs(cs.c2.value) <= 4 * ulp(cs.c1),
        applicable=q2,
    )

    # C - C1 bound hypotheses (the conclusion is checked by the harness)
    thm7_app = q2 and cs.constant is not None
    if thm7_app:
        enc = cs.constant.enclosure(3 * p)
        r_from_c = safe_round(enc.recip(), fmt)
        chk("c1-distance", "R is nearest(1/C) at p bits", cs.r == r_from_c, applicable=True)
    else:
        chk("c1-distance", "R is nearest(1/C) at p bits", True, applicable=False)
    chk(
        "c1-distance",
        "C1 >= 2^(p-1) * lambda",
        cs.c1.value >= Fraction(2) ** (p - 1) * lam,
        applicable=thm7_app,
    )

    # appendix add-on, informational
    rc1 = cs.r.value * cs.c1.value
    chk(
        "first-step(RC1<=1)",
        "R * C1 <= 1",
        rc1 <= 1,
        f"R*C1 - 1 = {rc1 - 1}",
        required=False,
    )

    return AuditReport(tuple(checks))


class AdjustResult(NamedTuple):
    constants: ConstantSet
    ulps_moved: int


def adjust_r_for_rc1_le_1(cs: ConstantSet) -> AdjustResult:
    """Nudge R by the fewest ulps so that R*C1 <= 1 holds exactly.

    The appendix first-step theorem for general q needs this extra
    inequality; one-ulp moves of R regenerate C1 (and C2, C3 when a real
    constant is attached).  Gives up after 8 ulps in either direction.
    """
    base_ulp = ulp(cs.r)
    for k in range(0, 9):
        for signed in ((k,) if k == 0 else (k, -k)):
            candidate = cs.r.value + signed * base_ulp
            if candidate <= 0:
                continue
            try:
                r_new = Fpn.from_fraction(candidate, cs.fmt)
                trial = _generate(cs.constant, cs.fmt, cs.n, cs.q, r_override=r_new)
            except (HypothesisViolation, ValueError, OverflowError):
                continue
            if trial.r.value * trial.c1.value <= 1:
                return AdjustResult(trial, signed)
    raise HypothesisViolation("R * C1 <= 1 not reachable within 8 ulps of R")


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
