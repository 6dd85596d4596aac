"""Checks of argred's outputs that do not use argred's own arithmetic.

Every conclusion is recomputed here in ``Fraction`` arithmetic, with pi
and ln 2 taken from mpmath and the constant sets compared against the
paper's published tables.  Program values are read only through the
fields of an ``Fpn`` (sign, m, e) or through the documented text form
``<significand> * 2^<exponent>``; no argred function is called.

Each ``*_failures`` function returns a list of messages, empty when
every check passed, so that the self-test can feed it perturbed values.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath

PRESET_P = {"single": 24, "double": 53, "double-extended": 64, "quad": 113}

_TEXT = re.compile(r"^\s*([+-]?\d+)\s*\*\s*2\^([+-]?\d+)\s*$")


def val(f) -> Fraction:
    """Exact value of an Fpn, read from its fields."""
    if f.e >= 0:
        return Fraction(f.sign * f.m * 2**f.e)
    return Fraction(f.sign * f.m, 2**-f.e)


def parse_text(text: str) -> Fraction:
    """Exact value of '<significand> * 2^<exponent>'."""
    m = _TEXT.match(text)
    if not m:
        raise ValueError(f"not an FPN text: {text!r}")
    return Fraction(int(m.group(1))) * Fraction(2) ** int(m.group(2))


def to_text(v: Fraction) -> str:
    """A dyadic rational in the '<significand> * 2^<exponent>' form."""
    e = 0
    while v.denominator != 1:
        v *= 2
        e -= 1
    return f"{v.numerator} * 2^{e}"


def floor_log2(a: Fraction) -> int:
    """The t with 2^t <= a < 2^(t+1), for a > 0."""
    t = a.numerator.bit_length() - a.denominator.bit_length()
    while Fraction(2) ** t > a:
        t -= 1
    while Fraction(2) ** (t + 1) <= a:
        t += 1
    return t


def nearest(v: Fraction, p: int, ties: str = "even") -> Fraction:
    """v rounded to p significant bits, unbounded exponent range.

    Decides the rounding by comparing the discarded fraction with 1/2 in
    Fraction arithmetic, a different route from the kernel's integer
    remainder test.
    """
    if v == 0:
        return Fraction(0)
    a = abs(v)
    quantum = Fraction(2) ** (floor_log2(a) - p + 1)
    scaled = a / quantum
    m = math.floor(scaled)
    rest = scaled - m
    if rest > Fraction(1, 2) or (rest == Fraction(1, 2) and (ties == "away" or m % 2 == 1)):
        m += 1
    return (m if v > 0 else -m) * quantum


def truncate(v: Fraction, p: int) -> Fraction:
    """v cut toward zero to p significant bits."""
    if v == 0:
        return Fraction(0)
    a = abs(v)
    quantum = Fraction(2) ** (floor_log2(a) - p + 1)
    m = math.floor(a / quantum)
    return (m if v > 0 else -m) * quantum


def is_pow2(v: Fraction) -> bool:
    return v > 0 and v == Fraction(2) ** floor_log2(v)


def fits(v: Fraction, p: int, e_min: int) -> bool:
    """Own bit test: v = n * 2^g with |n| < 2^p and g >= e_min."""
    if v == 0:
        return True
    num, den = abs(v.numerator), v.denominator
    g = 0
    while den % 2 == 0:
        den //= 2
        g -= 1
    if den != 1:
        return False
    while num % 2 == 0:
        num //= 2
        g += 1
    return num < 2**p and g >= e_min


def constant_interval(name: str, bits: int) -> tuple[Fraction, Fraction]:
    """Bounds on pi or ln 2 from mpmath at `bits` bits, two ulps wide."""
    with mpmath.workprec(bits):
        v = +(mpmath.pi if name == "pi" else mpmath.ln2)
    man, exp = v.man_exp
    mid = Fraction(man) * Fraction(2) ** exp
    ulp = Fraction(2) ** (floor_log2(mid) - bits + 1)
    return mid - 2 * ulp, mid + 2 * ulp


def expected_r(name: str, p: int) -> Fraction:
    """nearest(1/C) at p bits, refining mpmath's precision until unique."""
    bits = 8 * p
    while True:
        lo, hi = constant_interval(name, bits)
        a, b = nearest(1 / hi, p), nearest(1 / lo, p)
        if a == b:
            return a
        bits *= 2


def load_tables(root: Path) -> dict:
    """The paper's published constant tables, as exact values."""
    raw = json.loads((root / "tests" / "golden" / "tables.json").read_text())
    return {
        c: {f: {k: parse_text(t) for k, t in entry.items()} for f, entry in by_fmt.items()}
        for c, by_fmt in raw.items()
    }


@dataclass(frozen=True)
class Oracle:
    """Everything the checks compare against, none of it from argred."""

    tables: dict        # constant -> format -> published R, C1, C2, C3
    consts: dict        # constant -> mpmath bounds on C at 1200 bits (>= 4p)
    r_expected: dict    # (constant, format) -> nearest(1/C) at p bits


def load_oracle(root: Path) -> Oracle:
    return Oracle(
        load_tables(root),
        {c: constant_interval(c, 1200) for c in ("pi", "ln2")},
        {(c, f): expected_r(c, p) for c in ("pi", "ln2") for f, p in PRESET_P.items()},
    )


# ---------------------------------------------------------------------------
# constant sets
# ---------------------------------------------------------------------------


def constant_set_failures(const: str, fmt: str, r, c1, c2, c3, oracle: Oracle) -> list[str]:
    """A constant set against the published table and against mpmath's 1/C."""
    want = oracle.tables[const][fmt]
    out = []
    for name, got in (("R", r), ("C1", c1), ("C2", c2), ("C3", c3)):
        if got != want[name]:
            out.append(f"{const}/{fmt}: {name} differs from the published table")
    if r != oracle.r_expected[const, fmt]:
        out.append(f"{const}/{fmt}: R is not nearest(1/C) by mpmath")
    return out


def constants_json_failures(records, oracle: Oracle) -> list[str]:
    """`argred constants --all --json` output: 8 records, all published."""
    out = []
    seen = set()
    for rec in records:
        key = (rec["constant"], rec["precision"])
        seen.add(key)
        if rec["N"] != 0 or rec["q"] != 2:
            out.append(f"{key}: N/q are {rec['N']}/{rec['q']}, not 0/2")
        vals = [parse_text(rec[k]) for k in ("R", "C1", "C2", "C3")]
        out += constant_set_failures(*key, *vals, oracle)
    want = {(c, f) for c in oracle.tables for f in oracle.tables[c]}
    if seen != want or len(records) != len(want):
        out.append(f"constants --all returned {len(records)} records, not one per table entry")
    return out


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def stage_failures(
    x: Fraction,
    z: Fraction,
    n: int,
    r: Fraction,
    c1: Fraction,
    c2: Fraction | None = None,
    u: Fraction | None = None,
    v1: Fraction | None = None,
    v2: Fraction | None = None,
    ops: int | None = None,
    p: int | None = None,
) -> list[str]:
    """The stage conclusions, re-derived exactly.

    z-extraction: z*2^N is an integer, |x*R - z| <= 2^(-N-1), and
    ell = bitlength(z*2^N) is in [2, p-2] once |z| >= 2^(1-N);
    first step: u = x - z*C1; second step: v1 + v2 = x - z*C1 - z*C2
    in exactly 9 rounded operations.
    """
    out = []
    k = z * 2**n
    if k.denominator != 1:
        out.append("z*2^N is not an integer")
    elif p is not None and abs(k) >= 2 and not 2 <= abs(k.numerator).bit_length() <= p - 2:
        out.append("ell outside [2, p-2]")
    if abs(x * r - z) > Fraction(1, 2 ** (n + 1)):
        out.append("|x*R - z| > 2^(-N-1)")
    if u is not None and u != x - z * c1:
        out.append("u != x - z*C1")
    if v1 is not None and v1 + v2 != x - z * c1 - z * c2:
        out.append("v1 + v2 != x - z*C1 - z*C2")
    if ops is not None and ops != 9:
        out.append(f"second step made {ops} rounded operations, not 9")
    return out


def residual_bounds(x: Fraction, z: Fraction, v1: Fraction, w: Fraction, c_lo: Fraction, c_hi: Fraction):
    """Bounds on |v1 + w - (x - z*C)| for C in [c_lo, c_hi]."""
    base = v1 + w - x
    a, b = sorted((base + z * c_lo, base + z * c_hi))
    if a <= 0 <= b:
        return Fraction(0), max(-a, b)
    return min(abs(a), abs(b)), max(abs(a), abs(b))


def residual_failures(x, z, v1, w, c_lo, c_hi, res_lo, res_hi) -> list[str]:
    """The true residual, bracketed by mpmath's C, must meet [res_lo, res_hi]."""
    if res_lo is None or res_hi is None:
        return ["no residual interval reported"]
    if res_lo > res_hi or res_lo < 0:
        return ["residual interval is empty or negative"]
    lo, hi = residual_bounds(x, z, v1, w, c_lo, c_hi)
    if hi < res_lo or lo > res_hi:
        return ["true residual lies outside [residual_lo, residual_hi]"]
    return []


def reduce_failures(
    x: Fraction,
    n: int,
    p: int,
    table: dict,
    c_interval: tuple[Fraction, Fraction],
    out: dict,
    expect_z: Fraction | None = None,
) -> list[str]:
    """One `reduce` result, given as exact values in `out` (keys z, u, v1,
    v2, w, s, ops, exact_first, exact_second, residual_lo, residual_hi),
    against the published constants and mpmath's C.  `expect_z` is the z
    the input was built for (x nearest k*C, or |x*R| < 2^(-N-1))."""
    z = out["z"]
    f = stage_failures(
        x, z, n, table["R"], table["C1"], table["C2"],
        u=out["u"], v1=out["v1"], v2=out["v2"], ops=out["ops"], p=p,
    )
    if out["s"] != x * table["R"] - z:
        f.append("s != x*R - z")
    if not (out["exact_first"] and out["exact_second"]):
        f.append("an exactness flag is false")
    if expect_z is not None and z != expect_z:
        f.append(f"z = {z}, expected {expect_z}")
    f += residual_failures(x, z, out["v1"], out["w"], *c_interval, out["residual_lo"], out["residual_hi"])
    return f


def eft_failures(a: Fraction, b: Fraction, s: Fraction, e: Fraction, h: Fraction, l: Fraction, p: int, ties: str) -> list[str]:
    """Fast2Sum / Fast2Mult: rounded head and exact recomposition."""
    out = []
    if s != nearest(a + b, p, ties) or s + e != a + b:
        out.append("fast2sum: s is not nearest(a+b) or s + e != a + b")
    if h != nearest(a * b, p, ties) or h + l != a * b:
        out.append("fast2mult: h is not nearest(a*b) or h + l != a*b")
    return out


# ---------------------------------------------------------------------------
# campaigns and sweeps
# ---------------------------------------------------------------------------


def campaign_failures(record: dict, cases: int, chunks: int, other: dict | None = None) -> list[str]:
    """A randomized thm6/eft `verify --json` record: pass, case count, and
    agreement with the same campaign at another job count."""
    out = []
    if not record["pass"] or record["failures"]:
        out.append(f"{record['theorem']}: campaign reported failures")
    if record["cases"] != cases:
        out.append(f"{record['theorem']}: {record['cases']} cases, expected {cases}")
    if record["theorem"] == "thm6":
        if record["stats"].get("chunks") != chunks or record["stats"].get("ops_always_9") is not True:
            out.append("thm6: chunk count or 9-op flag wrong")
    if other is not None and (other["cases"], other["failures"], other["stats"]) != (
        record["cases"], record["failures"], record["stats"]
    ):
        out.append(f"{record['theorem']}: jobs=1 and jobs=2 disagree")
    return out


def sweep_failures(record: dict, p: int, r_values: int, skipped: int, x_values: int, n_count: int, in_range: int) -> list[str]:
    """A correct3 sweep record against its closed-form counts."""
    st = record["stats"]
    out = []
    if not record["pass"] or record["failures"]:
        out.append("correct3: sweep reported failures")
    if (st["r_values"], st["skipped_r"], st["x_values"]) != (r_values, skipped, x_values):
        out.append("correct3: R/x value counts differ from the closed form")
    if st["candidates"] != (r_values - skipped) * x_values * n_count:
        out.append("correct3: candidates != (R values - skipped) * x values * |N|")
    if record["cases"] != in_range:
        out.append(f"correct3: {record['cases']} in-range cases, expected {in_range}")
    if st["ell_values"] != list(range(2, p - 1)):
        out.append(f"correct3: ell values {st['ell_values']} are not 2..p-2")
    return out
