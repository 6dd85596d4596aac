"""Falsifiable checks for every exactness theorem the pipeline relies on.

Each check maps one theorem to an executable sweep: exhaustive over a
documented case space at small precision (generic radix for the
subtraction lemmas), or seeded-random campaigns against the real
constant sets at single/double.  Conclusions are always evaluated
against exact integer/rational arithmetic, never against the kernel
being tested.  Weakened-hypothesis runs are supported for
counterexample mining; absence of a counterexample is reported, never
asserted as a converse.
"""

from __future__ import annotations

import bisect
import functools
import os
import random
from dataclasses import asdict, dataclass, field, replace
from itertools import islice

from .constgen import C1_BOUND_Q, C1_NOT_POW2, HYPOTHESES, RC1_AT_MOST_1, ConstantSet, HypothesisViolation
from .constgen import first_failure, gen_constants, nearest_c1, sigma_for, synthetic_set
from .realnum import NAMED_CONSTANTS, PI
from .reduction import ReductionRangeError, TheoremViolation, extract_z, first_step
from .reduction import _extract_pairs, _require_covered, _second_step_pairs, _xr_fits
from .softfp import DOUBLE, FORMATS, TIES_EVEN, Fpn, Format, _rounded, fast2mult, fast2sum, fits_scaled, mul
from .softfp import _fma_pairs, round_nearest, sub, ulp, ulp2

__all__ = [
    "CheckConfig",
    "CheckResult",
    "NAMED_CONSTANTS",
    "check_correct1",
    "check_correct2",
    "check_correct3",
    "check_eft",
    "check_sterbenz",
    "check_sterbenz_approx2",
    "check_thm3",
    "check_thm6",
    "check_thm7",
    "default_jobs",
    "demo_codywaite",
    "run_check",
]

EXHAUSTIVE_CAP = 10**8


def default_jobs() -> int:
    """$ARGRED_JOBS, 1 when unset; a value that is not an integer of at least 1 raises ValueError."""
    text = os.environ.get("ARGRED_JOBS", "1")
    jobs = int(text) if text.strip().isdecimal() else 0
    if jobs < 1:
        raise ValueError(f"ARGRED_JOBS must be an integer of at least 1, got {text!r}")
    return jobs


@dataclass(frozen=True)
class CheckConfig:
    """One reproducible check run.

    Not every field applies to every theorem; unused ones are ignored.
    Exhaustive runs refuse case spaces above 10^8; randomized runs are
    fully determined by (seed, trials).
    """

    theorem: str
    beta: int = 2
    p: int | None = None
    p1: int | None = None
    p2: int | None = None
    window: int | None = None            # binades of enumerated values; None: the check's own
    n_values: tuple[int, ...] = (0, 1, 2)
    q_values: tuple[int, ...] = (2,)
    mode: str = "exhaustive"
    seed: int = 0
    trials: int = 10_000
    ties: str = TIES_EVEN
    constant: str = "pi"
    fmt: str = "double"
    r_step: int = 1                      # stride over R significands in sweeps
    jobs: int = 1

    def to_dict(self) -> dict:
        """Every field but jobs, which does not change a result."""
        d = asdict(self)
        del d["jobs"]
        d["n_values"], d["q_values"] = list(self.n_values), list(self.q_values)
        return d


@dataclass
class CheckResult:
    theorem: str
    config: dict
    cases: int
    failures: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """No failure, and at least one case: a check that ran none
        showed nothing."""
        return self.cases > 0 and not self.failures

    def to_record(self) -> dict:
        return {
            "theorem": self.theorem,
            "config": self.config,
            "cases": self.cases,
            "failures": self.failures,
            "stats": self.stats,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# generic-radix subtraction lemmas
# ---------------------------------------------------------------------------


def _radix_values(beta: int, p: int, window: int) -> list[int]:
    """Positive p-digit radix-beta values over `window` binades, scaled
    so the smallest quantum is 1: subnormal-like m in [1, beta^(p-1))
    plus m * beta^e for normal m and e in [0, window)."""
    vals = list(range(1, beta ** (p - 1)))
    scale = 1
    for _ in range(window):
        vals.extend(m * scale for m in range(beta ** (p - 1), beta**p))
        scale *= beta
    return vals


def _strippable_to_digits(n: int, beta: int, digits: int) -> bool:
    """Can |n| be written m * beta^e with |m| < beta^digits and e >= 0?"""
    n = abs(n)
    if n == 0:
        return True
    cap = beta**digits
    while n >= cap:
        if n % beta:
            return False
        n //= beta
    return True


def _kernel_format(beta: int, p: int, window: int) -> Format | None:
    """A kernel format holding the window values (quantum 1), or None
    when the radix or the precision is one the kernel does not take."""
    if beta != 2 or p < 4:
        return None
    return Format(p=p, e_min_q=0, e_max=p + window)


def check_sterbenz(cfg: CheckConfig) -> CheckResult:
    """y/2 <= x <= 2y implies x - y fits p radix-beta digits: Sterbenz's
    lemma, the p1 = p2 = p case of check_sterbenz_approx2."""
    p = cfg.p or 5
    return _subtraction_sweep(cfg, "sterbenz", p, p, {"p": p})


def check_sterbenz_approx2(cfg: CheckConfig) -> CheckResult:
    """y/(1+beta^(p2-p1)) <= x <= (1+beta^(p2-p1)) y implies x - y fits
    p2 digits, for p1-digit inputs; p1 and p2 are not ordered."""
    p1, p2 = cfg.p1 or 5, cfg.p2 or 3
    return _subtraction_sweep(cfg, "sterbenz2", p1, p2, {"p1": p1, "p2": p2})


def _subtraction_sweep(cfg: CheckConfig, name: str, p_in: int, p_out: int, labels: dict) -> CheckResult:
    """The lemma over all ordered pairs of the p_in-digit window values
    plus zero; pairs violating the condition are vacuous.  The condition
    forces x, y >= 0, so negative pairs add nothing (mirror symmetry).

    In radix 2 with max(p_in, p_out) >= 4 each condition pair is also
    subtracted by the kernel under cfg.ties, which must be exact and equal
    to x - y, and x - y rounded to p_out bits must give x - y back.
    """
    cfg = replace(cfg, window=8) if cfg.window is None else cfg
    beta, window = cfg.beta, cfg.window
    if beta < 2 or p_in < 2 or p_out < 2:
        raise ValueError(f"need beta >= 2 and {', '.join(labels)} >= 2")
    vals = [0] + _radix_values(beta, p_in, window)
    total = len(vals) ** 2
    if total > EXHAUSTIVE_CAP:
        raise ValueError(f"case space {total} exceeds the exhaustive cap")
    # condition scaled by beta^p_in: y*b1 <= x*(b1+b2) and x*b1 <= y*(b1+b2)
    b1 = beta**p_in
    b12 = b1 + beta**p_out
    fmt = _kernel_format(beta, max(p_in, p_out), window)
    fpns = {v: Fpn(1, v, 0, fmt) for v in vals} if fmt else None
    failures = []
    tested = 0
    cases = 0
    for y in vals:
        yb1 = y * b1
        yb12 = y * b12
        for x in vals:
            cases += 1
            if yb1 <= x * b12 and x * b1 <= yb12:
                tested += 1
                ok = _strippable_to_digits(x - y, beta, p_out)
                if fpns is not None:
                    d, exact = sub(fpns[x], fpns[y], cfg.ties)
                    back = round_nearest(x - y, fmt, target_p=p_out, ties=cfg.ties)
                    ok = ok and exact and d.value == x - y == back.value
                if not ok:
                    failures.append({"x": x, "y": y, "beta": beta, **labels})
    closed_form = ((beta**p_in - beta ** (p_in - 1)) * window + beta ** (p_in - 1)) ** 2
    assert cases == closed_form
    stats = {
        "condition_pairs": tested,
        "kernel_pairs": tested if fpns is not None else 0,
        "values": len(vals),
        "closed_form_cases": closed_form,
    }
    return CheckResult(name, cfg.to_dict(), cases, sorted_failures(failures), stats)


def sorted_failures(failures: list[dict]) -> list[dict]:
    return sorted(failures, key=lambda f: repr(sorted(f.items())))


# ---------------------------------------------------------------------------
# small-precision sweeps: one driver, one task per (q, R)
# ---------------------------------------------------------------------------


@functools.cache
def _sweep_format(p: int) -> Format:
    """One instance per p, shared by every sweep value, set and sigma."""
    return Format(p=p, e_min_q=-5 * p, e_max=12 * p)


def _sweep_space(cfg: CheckConfig, window: int, per_x_r_n: int) -> tuple[CheckConfig, list[Fpn], tuple]:
    """cfg with `window`, the check's own, when it names none, and the R
    values and x values of its small-precision sweep.

    An empty N or q list, a window or r_step below 1 is refused.  The case
    space, x values * R values * N values * q values * per_x_r_n, is
    counted first and must not exceed EXHAUSTIVE_CAP."""
    _check_values(cfg, "n_values", "q_values")
    cfg = replace(cfg, window=window) if cfg.window is None else cfg
    _check_at_least_1(cfg, "window", "r_step")
    p = cfg.p or 8
    half = 1 << (p - 1)
    r_values = 2 * len(range(half, 2 * half, cfg.r_step))
    space = 2 * cfg.window * half * r_values * len(cfg.n_values) * len(cfg.q_values) * per_x_r_n
    if space > EXHAUSTIVE_CAP:
        raise ValueError(f"case space {space} exceeds the exhaustive cap")
    fmt = _sweep_format(p)
    return cfg, _sweep_rs(fmt, cfg.r_step), _sweep_xs(fmt, cfg.window)


def _sweep_rs(fmt: Format, step: int) -> list[Fpn]:
    """All normal R significands over the two binades around 1: R in
    [1/2, 1) and [1, 2)."""
    p = fmt.p
    return [Fpn(1, m, e, fmt) for e in (-p, -p + 1) for m in range(1 << (p - 1), 1 << p, step)]


@functools.cache
def _sweep_xs(fmt: Format, window: int) -> tuple[tuple[Fpn, int, int, int], ...]:
    """Both signs, all significands, `window` value binades centered on 1, each as (x,
    signed significand, exponent, significand), by binade, then significand, +x next to
    -x, so |x| never falls; built once per format and window in a process, for all of
    its (q, R) tasks."""
    p = fmt.p
    lo_e = -(window // 2) - (p - 1)
    return tuple(
        (Fpn(sign, m, e, fmt), sign * m, e, m)
        for e in range(lo_e, lo_e + window)
        for m in range(1 << (p - 1), 1 << p)
        for sign in (1, -1)
    )


def _in_range(r: Fpn, window: int, n: int) -> tuple[tuple[Fpn, int, int, int], ...]:
    """The prefix of _sweep_xs with |x*R| in range at N (see xr_in_bounds), by bisection."""
    p, rm, shift, xs = r.fmt.p, r.m, r.e + n, _sweep_xs(r.fmt, window)
    return xs[:bisect.bisect_left(xs, True, key=lambda t: not _xr_fits(t[3] * rm, t[2] + shift, p))]


def _sweep(cfg: CheckConfig, name: str, per_r, rs: list[Fpn], **space) -> CheckResult:
    """The sweep `name`, one _run_campaign task per q of cfg and R of rs:
    per_r(cfg, q, R) gives the (cases, failures, stats) of its (q, R).  The
    stats of the whole case space, r_values and `space`, are set here."""
    tasks = [(per_r, cfg, q, r.m, r.e) for q in cfg.q_values for r in rs]
    cases, failures, stats = _run_campaign(_sweep_task, tasks, cfg.jobs)
    return CheckResult(name, cfg.to_dict(), cases, sorted_failures(failures), {"r_values": len(rs), **space, **stats})


def _sweep_task(args: tuple) -> tuple[int, list[dict], dict]:
    """One task of _sweep, R rebuilt from its ints on the process's own sweep
    format: no Format crosses a pipe, and sigma_for keeps one per (format, N)."""
    per_r, cfg, q, rm, re = args
    return per_r(cfg, q, Fpn(1, rm, re, _sweep_format(cfg.p or 8)))


def _x_minus_zc1(xn: int, xe: int, zn: int, ze: int, c1n: int, c1e: int) -> tuple[int, int]:
    """x - z*C1 = num * 2^e0 exactly, as (num, e0), for the pairs x = xn*2^xe,
    z = zn*2^ze and C1 = c1n*2^c1e."""
    zn, ze = zn * c1n, ze + c1e
    if xe >= ze:
        return (xn << (xe - ze)) - zn, ze
    return xn - (zn << (ze - xe)), xe


def _pipeline_r(cfg: CheckConfig, q: int, r: Fpn, want_first: bool) -> tuple[int, list[dict], dict]:
    """thm3 at one (q, R), with correct3's first step when want_first."""
    fmt, ties, rm, re = r.fmt, cfg.ties, r.m, r.e
    try:
        lane = synthetic_set(r, n=max(cfg.n_values), q=q).lane
        mc1n, c1e, n_values = lane.mc1n, lane.c1e, cfg.n_values  # the first step is fma(z, -C1, x)
    except HypothesisViolation:
        n_values = ()
    failures = []
    cases = zero_z = below_thm_range = 0
    ell_seen = set()
    for n in n_values:
        sigma = sigma_for(fmt, n)
        xs = _in_range(r, cfg.window, n)
        cases += len(xs)
        for x, xn, xe, _ in xs:
            try:
                zn, ze, _, ell, _, _, in_range = _extract_pairs(xn, xe, rm, re, sigma.m, sigma.e, n, fmt, ties, True)
            except TheoremViolation as exc:
                fail = {"error": str(exc)}
            else:
                if not zn:
                    zero_z += 1
                elif in_range:
                    ell_seen.add(ell)
                else:
                    below_thm_range += 1
                if not want_first:
                    continue
                # x - z*C1 = d * 2^e, built once: the kernel's rounding of it, and fits_scaled
                e, d, un = _fma_pairs(zn, ze, mc1n, c1e, xn, xe, fmt, ties)
                exact, representable = un == d, fits_scaled(d, e, fmt.p, fmt)
                if exact and representable:
                    continue
                fail = {"exact_first": exact, "representable": representable}
            failures.append({**fail, "x": x.to_text(), "R": r.to_text(), "N": n, "q": q, "p": fmt.p})
    stats = {"candidates": len(_sweep_xs(fmt, cfg.window)) * len(n_values), "skipped_r": int(not n_values),
             "zero_z": zero_z, "below_thm_range": below_thm_range, "ell_values": sorted(ell_seen)}
    return cases, failures, stats


def check_thm3(cfg: CheckConfig) -> CheckResult:
    """z-extraction guarantees, as extract_z verifies them: z*2^N
    integral for every z; ell in [2, p-2] and |x*R - z| <= 2^(-N-1) for
    |z| >= 2^(1-N).  A raised TheoremViolation is a failure."""
    cfg, rs, xs = _sweep_space(cfg, 12, 1)
    return _sweep(cfg, "thm3", functools.partial(_pipeline_r, want_first=False), rs, x_values=len(xs))


def check_correct3(cfg: CheckConfig) -> CheckResult:
    """q = 2 first step: x - z*C1 is a p-bit FPN and the fma is exact,
    swept together with the z-extraction guarantees."""
    cfg, rs, xs = _sweep_space(cfg, 12, 1)
    return _sweep(cfg, "correct3", functools.partial(_pipeline_r, want_first=True), rs, x_values=len(xs))


# ---------------------------------------------------------------------------
# free-z first step (general q), and the R*C1 <= 1 variant
# ---------------------------------------------------------------------------


def _general_q_set(r: Fpn, q: int, ties: str) -> ConstantSet | None:
    """R and C1 = RN(1/R) at p-q bits under `ties`, which the general-q
    sweeps ask C1_BOUND_Q about at each N; None when C1 fails C1_NOT_POW2."""
    cs = ConstantSet(None, r.fmt, 0, q, r, nearest_c1(r, q, ties), None, None)
    return cs if C1_NOT_POW2.holds(cs, 0) else None


def check_correct1(cfg: CheckConfig) -> CheckResult:
    """General-q first step with a free z = k*2^-N, k an ell-bit integer,
    q <= ell <= p-1, |x*R - z| <= 2^(-N-1): x - z*C1 is a p-bit FPN.

    Set q_values=(1,) to mine for counterexamples outside q >= 2; the
    result then reports failures without implying sharpness either way.
    """
    _check_values(cfg, "n_values", "q_values")
    _check_at_least_1(cfg, "r_step")
    p = cfg.p or 8
    for q in cfg.q_values:
        if not 1 <= q < p - 1:
            raise ValueError(f"q={q} out of the checkable range")
    return _sweep(cfg, "correct1", _correct1_r, _sweep_rs(_sweep_format(p), cfg.r_step))


def _correct1_r(cfg: CheckConfig, q: int, r: Fpn) -> tuple[int, list[dict], dict]:
    """correct1 at one (q, R): each N, ell, ell-bit k and sign of z, and
    every x with |x*R - z| <= 2^(-N-1)."""
    fmt, p = r.fmt, r.fmt.p
    cs = _general_q_set(r, q, cfg.ties)
    if cs is None:
        return 0, [], {"skipped_r": 1}
    c1n, c1e = cs.c1.sign * cs.c1.m, cs.c1.e
    failures = []
    cases = skipped = 0
    for n in cfg.n_values:
        if not C1_BOUND_Q.holds(cs, n):
            skipped += 1
            continue
        for ell in range(max(2, q), p):
            for k in range(1 << (ell - 1), 1 << ell):
                for m, e in _correct1_cell(k, n, r.m, r.e, fmt):
                    cases += 2  # the cell of -z is this one negated, and x - z*C1 just changes sign
                    if not fits_scaled(*_x_minus_zc1(m, e, k, -n, c1n, c1e), p, fmt):
                        failures += ({"x": Fpn(sgn, m, e, fmt).to_text(), "z": Fpn(sgn, k, -n, fmt).to_text(),
                                      "ell": ell, "R": r.to_text(), "N": n, "q": q} for sgn in (1, -1))
    return cases, failures, {"skipped_r": skipped}


def _correct1_cell(k: int, n: int, rm: int, re: int, fmt: Format):
    """(m, e) of each FPN x > 0 with |x*R - k*2^-N| <= 2^(-N-1), R = rm * 2^re, ascending:
    m*rm*2^s in [2k - 1, 2k + 1] for s = e + re + N + 1, one m range per binade, m >= 1 at e_min_q."""
    p, e_min, lo, hi, c = fmt.p, fmt.e_min_q, 2 * k - 1, 2 * k + 1, re + n + 1
    b = rm.bit_length() + c + p  # the cell spans binades lo.bl - b to hi.bl - b + 1
    for e in range(max(lo.bit_length() - b, e_min), max(hi.bit_length() - b + 1, e_min) + 1):
        s = e + c
        d, a, z = (rm << s, lo, hi) if s >= 0 else (rm, lo << -s, hi << -s)
        for m in range(max(-(-a // d), 1 if e == e_min else 1 << (p - 1)), min(z // d, (1 << p) - 1) + 1):
            yield m, e


# what check_correct2 asks at each N: z extraction's hypotheses, and the
# general-q first step's bound on C1
_CORRECT2_HYPOTHESES = tuple(h for h in HYPOTHESES if h.theorem == "z-extraction") + (C1_BOUND_Q,)


def check_correct2(cfg: CheckConfig) -> CheckResult:
    """Appendix variant: general q with R*C1 <= 1, z from the extraction
    algorithm; x - z*C1 is a p-bit FPN for every in-range x.  An N that
    fails _CORRECT2_HYPOTHESES counts in skipped_r."""
    cfg, rs, _ = _sweep_space(cfg, 12, 1)
    return _sweep(cfg, "correct2", _correct2_r, rs)


def _correct2_r(cfg: CheckConfig, q: int, r: Fpn) -> tuple[int, list[dict], dict]:
    """correct2 at one (q, R)."""
    fmt, ties, rm, re = r.fmt, cfg.ties, r.m, r.e
    cs = _general_q_set(r, q, ties)
    if cs is None or not RC1_AT_MOST_1.holds(cs, 0):
        return 0, [], {"skipped_r": int(cs is None), "rc1_filtered": int(cs is not None)}
    c1n, c1e = cs.c1.sign * cs.c1.m, cs.c1.e
    failures = []
    cases = skipped = 0
    for n in cfg.n_values:
        if first_failure(cs, n, _CORRECT2_HYPOTHESES) is not None:
            skipped += 1
            continue
        sigma = sigma_for(fmt, n)
        xs = _in_range(r, cfg.window, n)
        cases += len(xs)
        for x, xn, xe, _ in xs:
            try:
                zn, ze = _extract_pairs(xn, xe, rm, re, sigma.m, sigma.e, n, fmt, ties, True)[:2]
            except TheoremViolation as exc:
                fail = {"error": str(exc)}
            else:
                if fits_scaled(*_x_minus_zc1(xn, xe, zn, ze, c1n, c1e), fmt.p, fmt):
                    continue
                fail = {"z": _rounded(zn, ze, fmt).to_text()}
            failures.append({"x": x.to_text(), "R": r.to_text(), "N": n, "q": q, **fail})
    return cases, failures, {"skipped_r": skipped, "rc1_filtered": 0}


# ---------------------------------------------------------------------------
# second step
# ---------------------------------------------------------------------------


def _random_fields(rng: random.Random, p: int, e_lo: int, e_width: int):
    """Endless (sign, m, e): a random sign, a p-bit significand and an
    exponent in [e_lo, e_lo + e_width), as rng.random() and two randrange
    calls draw them, each randrange taken straight from getrandbits by its
    own rule (k = width.bit_length() bits, again while >= width), so a seed
    yields randrange's stream."""
    lo_m = 1 << (p - 1)  # the significand's width: p bits a try
    e_bits = e_width.bit_length()
    random_, getrandbits = rng.random, rng.getrandbits
    while True:
        sign = 1 if random_() < 0.5 else -1
        m = getrandbits(p)
        while m >= lo_m:
            m = getrandbits(p)
        e = getrandbits(e_bits)
        while e >= e_width:
            e = getrandbits(e_bits)
        yield sign, m + lo_m, e + e_lo


def _random_xs(rng: random.Random, fmt: Format, rm: int, re: int, n: int):
    """Random x, as signed pairs, with |x*R| in range at N for R = rm * 2^re:
    _random_fields with the exponent in the p + 25 binades below 2^(-N-2),
    drawn again until an FPN in range; Fpn() canonicalizes an exponent
    outside fmt's normal range, or refuses one above it."""
    p = fmt.p
    e_min, e_top, shift = fmt.e_min_q, fmt.e_max - p + 1, re + n
    for sign, m, e in _random_fields(rng, p, -n - p - 26, p + 25):
        if e < e_min and m & ((1 << e_min - e) - 1):
            continue
        if not e_min <= e <= e_top:
            x = Fpn(sign, m, e, fmt)
            m, e = x.m, x.e
        if _xr_fits(m * rm, e + shift, p):
            yield sign * m, e


def _thm6_chunk(args: tuple) -> tuple[int, list[dict], dict]:
    constant, fmt_label, n, q, seed, trials, ties = args
    fmt = FORMATS[fmt_label]
    cs = gen_constants(NAMED_CONSTANTS[constant], fmt, n=n, q=q)
    if n > cs.n:  # the lane runs at N = n, which the set must cover
        _require_covered(cs, n)
    sigma, failures = sigma_for(fmt, n), []
    lane = tuple(cs.lane._replace(n=n, sn=sigma.m, se=sigma.e))  # exact: a namedtuple unpacks via its iterator
    for xn, xe in islice(_random_xs(random.Random(seed), fmt, cs.r.m, cs.r.e, n), trials):
        entry = _run_second_step_case(xn, xe, cs, lane, ties)
        if entry is not None:
            failures.append(entry)
    return trials, failures, {}


def _run_second_step_case(
    xn: int, xe: int, cs: ConstantSet, lane: tuple, ties: str, head: tuple | dict | None = None
) -> dict | None:
    """One thm6 case on the pair core: x = xn * 2^xe, in range, against cs's lane as a tuple (or
    one run at another N), from its _first_step_head if given; z goes on as extraction's (k, -N).
    A failure record, or None."""
    fmt, n, rn, re, sn, se, mc1n, c1e, c2n, c2e, _, _, _, _, _ = lane
    try:
        if head is None:  # inline for the campaign, where a _first_step_head call costs ~3% a case
            zn, ze = _extract_pairs(xn, xe, rn, re, sn, se, n, fmt, ties, True)[:2]
            e, d, un = _fma_pairs(zn, ze, mc1n, c1e, xn, xe, fmt, ties)
        elif isinstance(head, dict):
            return head
        else:
            zn, ze, e, d, un = head
        exact2, ops = _second_step_pairs(xn, xe, zn, ze, e, d, un, c2n, c2e, cs, fmt, ties)[3:]
    except TheoremViolation as exc:
        return {"x": _rounded(xn, xe, fmt).to_text(), "N": n, "error": str(exc)}
    if un != d or not exact2 or ops != 9:
        x = _rounded(xn, xe, fmt).to_text()
        return {"x": x, "N": n, "exact_first": un == d, "exact_second": exact2, "ops": ops}
    return None


def _first_step_head(xn: int, xe: int, lane: tuple, ties: str) -> tuple | dict:
    """A thm6 case's z-extraction and first step, which read no C2: (zn, ze, e, d, un) with z = zn * 2^ze
    as the pair (k, -N), x - z*C1 = d * 2^e and u = un * 2^e, exact iff un == d, or an error record."""
    fmt, n, rn, re, sn, se, mc1n, c1e, _, _, _, _, _, _, _ = lane
    try:
        zn, ze = _extract_pairs(xn, xe, rn, re, sn, se, n, fmt, ties, True)[:2]
    except TheoremViolation as exc:
        return {"x": _rounded(xn, xe, fmt).to_text(), "N": n, "error": str(exc)}
    return (zn, ze, *_fma_pairs(zn, ze, mc1n, c1e, xn, xe, fmt, ties))


def check_thm6(cfg: CheckConfig) -> CheckResult:
    """Second-step equality v1 + v2 = x - z*C1 - z*C2, with Fast2Sum
    preconditions verified on every call and 9 rounded ops per step.

    Randomized mode drives the real constant sets; exhaustive mode
    sweeps a small precision with synthetic C2 multiples on the grid.
    """
    if cfg.mode == "randomized":
        return _check_thm6_randomized(cfg)
    if tuple(cfg.q_values) != (2,):
        raise ValueError(f"exhaustive thm6 runs q=2 only, got q_values={list(cfg.q_values)}")
    cfg, rs, _ = _sweep_space(cfg, 10, 8)  # up to 8 C2 multiples per (R, N)
    return _sweep(cfg, "thm6", _thm6_r, rs)


def _check_at_least_1(cfg: CheckConfig, *names: str) -> None:
    # no trials, an empty x window or an R stride below 1 would pass
    # without running a case; jobs below 1 would run as jobs = 1
    for name in names:
        value = getattr(cfg, name)
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _check_values(cfg: CheckConfig, *names: str) -> None:
    # an empty N or q list would pass without running a case
    for name in names:
        if not getattr(cfg, name):
            raise ValueError(f"{name} is empty: the check would run no case")


_CHUNK = 100_000


def _chunks(trials: int) -> list[tuple[int, int]]:
    """(index, size) of each chunk of a campaign."""
    return [(idx, min(_CHUNK, trials - start)) for idx, start in enumerate(range(0, trials, _CHUNK))]


def _run_campaign(fn, tasks: list, jobs: int) -> tuple[int, list[dict], dict]:
    """fn over the tasks in order, on a pool of at most one process per task
    when jobs > 1; each task gives (cases, failures, stats), and the sums
    come back: counts add up, and a list stat (ell_values) is a sorted union."""
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            parts = list(pool.map(fn, tasks))
    else:
        parts = [fn(t) for t in tasks]
    stats = {}
    for _, _, part in parts:
        for key, v in part.items():
            stats[key] = sorted({*stats.get(key, ()), *v}) if isinstance(v, list) else stats.get(key, 0) + v
    return sum(p[0] for p in parts), [f for p in parts for f in p[1]], stats


def _check_thm6_randomized(cfg: CheckConfig) -> CheckResult:
    _check_at_least_1(cfg, "trials")
    _check_values(cfg, "n_values", "q_values")
    if len(cfg.q_values) > 1:
        raise ValueError(f"randomized thm6 runs one q, got q_values={list(cfg.q_values)}")
    q = cfg.q_values[0]
    tasks = [
        (cfg.constant, cfg.fmt, n, q, cfg.seed + 7919 * idx + n, take, cfg.ties)
        for n in cfg.n_values
        for idx, take in _chunks(cfg.trials)
    ]
    cases, failures, _ = _run_campaign(_thm6_chunk, tasks, cfg.jobs)
    stats = {"ops_always_9": all(f.get("ops") in (None, 9) for f in failures), "chunks": len(tasks)}
    return CheckResult("thm6", cfg.to_dict(), cases, sorted_failures(failures), stats)


def _thm6_r(cfg: CheckConfig, q: int, r: Fpn) -> tuple[int, list[dict], dict]:
    """Exhaustive thm6 at one R: each N, each C2 multiple on the 8*ulp2(C1) grid that the set
    takes, and every in-range x, whose C2-free _first_step_head is taken once per N."""
    failures = []
    cases = skipped = 0
    for n in cfg.n_values:
        try:
            base = synthetic_set(r, n=n, q=q)
        except HypothesisViolation:
            skipped += 1
            continue
        grid = 8 * ulp2(base.c1)
        kmax = int((4 * ulp(base.c1)) / grid)
        xs, heads = _in_range(r, cfg.window, n), None
        for kk in sorted({0, 1, -1, 5, -5, kmax, -kmax, kmax - 1}):
            try:
                cs = synthetic_set(r, n=n, q=q, c2=Fpn.from_fraction(kk * grid, r.fmt))
            except (HypothesisViolation, ValueError):
                skipped += 1
                continue
            lane = tuple(cs.lane)  # an exact tuple unpacks faster, as in _thm6_chunk
            heads = heads or [(xn, xe, _first_step_head(xn, xe, lane, cfg.ties)) for _, xn, xe, _ in xs]
            cases += len(xs)
            for xn, xe, head in heads:
                entry = _run_second_step_case(xn, xe, cs, lane, cfg.ties, head)
                if entry is not None:
                    failures.append({**entry, "R": r.to_text(), "C2": cs.c2.to_text()})
    return cases, failures, {"skipped": skipped}


# ---------------------------------------------------------------------------
# constant-distance bound and error-free transformations
# ---------------------------------------------------------------------------


def check_thm7(cfg: CheckConfig) -> CheckResult:
    """|C - C1| <= 4 ulp(C1) over all preset constant sets, via the
    enclosure's endpoints."""
    failures = []
    cases = 0
    for cname, constant in NAMED_CONSTANTS.items():
        for flabel, fmt in FORMATS.items():
            cases += 1
            cs = gen_constants(constant, fmt)
            enc = constant.enclosure(4 * fmt.p)
            worst = max(abs(enc.lo - cs.c1.value), abs(enc.hi - cs.c1.value))
            if worst > 4 * ulp(cs.c1):
                failures.append({"constant": cname, "format": flabel})
    return CheckResult("thm7", cfg.to_dict(), cases, sorted_failures(failures), {})


def _sum2_scaled(p: Fpn, q: Fpn) -> tuple[int, int]:
    e0 = p.e if p.e < q.e else q.e
    return (p.sign * p.m << (p.e - e0)) + (q.sign * q.m << (q.e - e0)), e0


def _eft_chunk(args: tuple) -> tuple[int, list[dict], dict]:
    seed, trials, ties = args
    fmt = DOUBLE
    fields = _random_fields(random.Random(seed), fmt.p, -30, 60)  # a, then b, from one stream
    failures = []
    for (sa, ma, ea), (sb, mb, eb) in islice(zip(fields, fields), trials):
        a, b = Fpn(sa, ma, ea, fmt), Fpn(sb, mb, eb, fmt)
        d = a.e - b.e
        a_ge_b = (a.m << d) >= b.m if d >= 0 else a.m >= (b.m << -d)
        big, small = (a, b) if a_ge_b else (b, a)
        s, e = fast2sum(big, small, ties)
        # independent recomposition: exact scaled-integer comparison
        ln, le = _sum2_scaled(s, e)
        rn, re_ = _sum2_scaled(a, b)
        if (ln << (le - re_) if le >= re_ else ln) != (rn if le >= re_ else rn << (re_ - le)):
            failures.append({"op": "fast2sum", "a": a.to_text(), "b": b.to_text()})
        h, low = fast2mult(a, b, ties)
        hn, he = _sum2_scaled(h, low)
        pn = a.sign * b.sign * a.m * b.m
        pe = a.e + b.e
        if (hn << (he - pe) if he >= pe else hn) != (pn if he >= pe else pn << (pe - he)):
            failures.append({"op": "fast2mult", "a": a.to_text(), "b": b.to_text()})
    return trials, failures, {}


def check_eft(cfg: CheckConfig) -> CheckResult:
    """Random valid Fast2Sum/Fast2Mult calls recompose exactly."""
    _check_at_least_1(cfg, "trials")
    tasks = [(cfg.seed + 104729 * idx, take, cfg.ties) for idx, take in _chunks(cfg.trials)]
    cases, failures, _ = _run_campaign(_eft_chunk, tasks, cfg.jobs)
    return CheckResult("eft", cfg.to_dict(), cases, sorted_failures(failures), {})


# ---------------------------------------------------------------------------
# the two-rounding failure demo
# ---------------------------------------------------------------------------


_CODYWAITE_SCAN = 10_000


def demo_codywaite() -> dict:
    """Find a double x where the classic two-rounding first step
    o(x - o(z*C1_full)) commits a rounding error while the fma step is
    exact, with C1_full the full-precision nearest to 1/R.

    Returns the first such case of the scan with both residuals and the
    cancellation count; existence is the point, not a specific x.
    """
    fmt = DOUBLE
    cs = gen_constants(PI, fmt)
    c1_full = nearest_c1(cs.r, 0)
    for k in range(3, _CODYWAITE_SCAN):
        x = Fpn.from_int(k, fmt)
        try:
            z, _ = extract_z(x, cs)
        except ReductionRangeError:
            break
        if z.is_zero():
            continue
        prod, prod_exact = mul(z, c1_full)
        if prod_exact:
            continue
        u2, _ = sub(x, prod)
        two_round_err = abs(u2.value - (x.value - z.value * c1_full.value))
        if two_round_err == 0:
            continue
        u_fma, fma_exact = first_step(x, z, cs)
        if not fma_exact or u_fma.is_zero():
            continue
        top_x = x.m.bit_length() - 1 + x.e
        top_u = u_fma.m.bit_length() - 1 + u_fma.e
        cancelled = top_x - top_u
        enc = PI.enclosure(6 * fmt.p)
        fma_vs_c = max(
            abs(u_fma.value - (x.value - z.value * enc.lo)),
            abs(u_fma.value - (x.value - z.value * enc.hi)),
        )
        return {
            "x": x.to_text(),
            "z": z.to_text(),
            "C1_pipeline": cs.c1.to_text(),
            "C1_full": c1_full.to_text(),
            "two_round_u": u2.to_text(),
            "two_round_product_inexact": True,
            "two_round_error_vs_x_zC1full": str(two_round_err),
            "fma_u": u_fma.to_text(),
            "fma_exact": True,
            "fma_error_vs_x_zC1": "0",
            "fma_error_vs_x_zC": str(fma_vs_c),
            "cancellation_bits": cancelled,
        }
    raise RuntimeError("no two-rounding failure found in scan (unexpected)")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_CHECKS = {
    "sterbenz": check_sterbenz,
    "sterbenz2": check_sterbenz_approx2,
    "thm3": check_thm3,
    "correct1": check_correct1,
    "correct2": check_correct2,
    "correct3": check_correct3,
    "thm6": check_thm6,
    "thm7": check_thm7,
    "eft": check_eft,
}


def run_check(cfg: CheckConfig) -> CheckResult:
    try:
        fn = _CHECKS[cfg.theorem]
    except KeyError:
        raise ValueError(
            f"unknown theorem {cfg.theorem!r}; pick one of {sorted(_CHECKS)}"
        ) from None
    _check_at_least_1(cfg, "jobs")
    return fn(cfg)
