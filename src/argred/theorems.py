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

import functools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

from .constgen import C1_BOUND_Q, C1_NOT_POW2, HYPOTHESES, RC1_AT_MOST_1, ConstantSet, HypothesisViolation
from .constgen import first_failure, gen_constants, recip_ratio, synthetic_set
from .realnum import LN2, PI, round_rational
from .reduction import (
    ReductionRangeError,
    TheoremViolation,
    extract_z,
    first_step,
    second_step,
    xr_in_bounds,
)
from .softfp import (
    DOUBLE,
    FORMATS,
    TIES_EVEN,
    Fpn,
    Format,
    fast2mult,
    fast2sum,
    fits_scaled,
    mul,
    round_nearest,
    sub,
    ulp,
    ulp2,
)

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

NAMED_CONSTANTS = {"pi": PI, "ln2": LN2}

EXHAUSTIVE_CAP = 10**8


def default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("ARGRED_JOBS", "1")))
    except ValueError:
        return 1


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
    cfg = _own_window(cfg, 8)
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


def _own_window(cfg: CheckConfig, window: int) -> CheckConfig:
    """cfg with `window`, the check's own, when it names none."""
    return replace(cfg, window=window) if cfg.window is None else cfg


def sorted_failures(failures: list[dict]) -> list[dict]:
    return sorted(failures, key=lambda f: repr(sorted(f.items())))


# ---------------------------------------------------------------------------
# small-precision pipeline sweeps (z extraction + first step)
# ---------------------------------------------------------------------------


@functools.cache
def _sweep_format(p: int) -> Format:
    """One instance per p, shared by every sweep value, set and sigma."""
    return Format(p=p, e_min_q=-5 * p, e_max=12 * p)


def _sweep_space(cfg: CheckConfig, per_x_r_n: int) -> tuple[Format, list, list]:
    """The format, x values and R values of a small-precision sweep.

    A window or r_step below 1 is refused.  The case space, x values * R
    values * N values * per_x_r_n, is counted first and must not exceed
    EXHAUSTIVE_CAP."""
    _check_at_least_1(cfg, "window", "r_step")
    p = cfg.p or 8
    half = 1 << (p - 1)
    r_values = 2 * len(range(half, 2 * half, cfg.r_step))
    space = 2 * cfg.window * half * r_values * len(cfg.n_values) * per_x_r_n
    if space > EXHAUSTIVE_CAP:
        raise ValueError(f"case space {space} exceeds the exhaustive cap")
    fmt = _sweep_format(p)
    return fmt, _sweep_xs(fmt, cfg.window), _sweep_rs(fmt, cfg.r_step)


def _sweep_rs(fmt: Format, step: int) -> list[Fpn]:
    """All normal R significands over the two binades around 1."""
    p = fmt.p
    out = []
    for e in (-p, -p + 1):  # R in [1/2, 1) and [1, 2)
        for m in range(1 << (p - 1), 1 << p, step):
            out.append(Fpn(1, m, e, fmt))
    return out


def _sweep_xs(fmt: Format, window: int) -> list[Fpn]:
    """Both signs, all significands, `window` value binades centered on 1."""
    p = fmt.p
    lo_b = -(window // 2)
    out = []
    for b in range(lo_b, lo_b + window):
        e = b - (p - 1)
        for m in range(1 << (p - 1), 1 << p):
            out.append(Fpn(1, m, e, fmt))
            out.append(Fpn(-1, m, e, fmt))
    return out


def _x_minus_zc1(x: Fpn, z: Fpn, c1n: int, c1e: int) -> tuple[int, int]:
    """x - z*C1 = num * 2^e0 exactly, as (num, e0); C1 = c1n * 2^c1e."""
    zn = z.sign * z.m * c1n
    ze = z.e + c1e
    xn = x.sign * x.m
    if x.e >= ze:
        return (xn << (x.e - ze)) - zn, ze
    return xn - (zn << (ze - x.e)), x.e


def _pipeline_sweep(cfg: CheckConfig, want_first: bool) -> CheckResult:
    _check_values(cfg, "n_values", "q_values")
    cfg = _own_window(cfg, 12)
    fmt, xs, rs = _sweep_space(cfg, len(cfg.q_values))
    p = fmt.p
    failures = []
    cases = 0
    candidates = 0
    skipped_r = 0
    ell_seen = set()
    zero_z = 0
    below_thm_range = 0
    for q in cfg.q_values:
        for r in rs:
            try:
                cs = synthetic_set(r, n=max(cfg.n_values), q=q)
            except HypothesisViolation:
                skipped_r += 1
                continue
            c1 = cs.c1
            c1n = c1.sign * c1.m
            for n in cfg.n_values:
                for x in xs:
                    candidates += 1
                    if not xr_in_bounds(x, r, n):
                        continue
                    cases += 1
                    fail = {}
                    try:
                        z, info = extract_z(x, cs, n, cfg.ties)
                    except TheoremViolation as exc:
                        fail["error"] = str(exc)
                    else:
                        if z.is_zero():
                            zero_z += 1
                        elif info.in_thm_range:
                            ell_seen.add(info.ell)
                        else:
                            below_thm_range += 1
                        if want_first:
                            u, exact = first_step(x, z, cs, cfg.ties)
                            representable = fits_scaled(*_x_minus_zc1(x, z, c1n, c1.e), p, fmt)
                            if not exact or not representable:
                                fail["exact_first"] = exact
                                fail["representable"] = representable
                    if fail:
                        fail.update(
                            {"x": x.to_text(), "R": r.to_text(), "N": n, "q": q, "p": p}
                        )
                        failures.append(fail)
    stats = {
        "candidates": candidates,
        "r_values": len(rs),
        "x_values": len(xs),
        "skipped_r": skipped_r,
        "zero_z": zero_z,
        "below_thm_range": below_thm_range,
        "ell_values": sorted(ell_seen),
    }
    name = "correct3" if want_first else "thm3"
    return CheckResult(name, cfg.to_dict(), cases, sorted_failures(failures), stats)


def check_thm3(cfg: CheckConfig) -> CheckResult:
    """z-extraction guarantees, as extract_z verifies them: z*2^N
    integral for every z; ell in [2, p-2] and |x*R - z| <= 2^(-N-1) for
    |z| >= 2^(1-N).  A raised TheoremViolation is a failure."""
    return _pipeline_sweep(cfg, want_first=False)


def check_correct3(cfg: CheckConfig) -> CheckResult:
    """q = 2 first step: x - z*C1 is a p-bit FPN and the fma is exact,
    swept together with the z-extraction guarantees."""
    return _pipeline_sweep(cfg, want_first=True)


# ---------------------------------------------------------------------------
# free-z first step (general q), and the R*C1 <= 1 variant
# ---------------------------------------------------------------------------


def _fpns_in_interval(lo: Fraction, hi: Fraction, fmt: Format):
    """Canonical FPNs x with lo <= x <= hi, ascending."""
    x = round_nearest(lo, fmt)
    while x.value < lo:
        x = x.next_up()
    while x.value > lo:
        prev = x.next_down()
        if prev.value < lo:
            break
        x = prev
    while x.value <= hi:
        yield x
        x = x.next_up()


def _general_q_set(r: Fpn, q: int, ties: str) -> ConstantSet | None:
    """R and C1 = RN(1/R) at p-q bits under `ties`, which the general-q
    sweeps ask C1_BOUND_Q about at each N; None when C1 fails C1_NOT_POW2."""
    c1 = round_rational(*recip_ratio(r), r.fmt, r.fmt.p - q, ties)
    cs = ConstantSet(None, r.fmt, 0, q, r, c1, None, None)
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
    fmt = _sweep_format(p)
    rs = _sweep_rs(fmt, cfg.r_step)
    failures = []
    cases = 0
    skipped_r = 0
    for q in cfg.q_values:
        if not 1 <= q < p - 1:
            raise ValueError(f"q={q} out of the checkable range")
        for r in rs:
            cs = _general_q_set(r, q, cfg.ties)
            if cs is None:
                skipped_r += 1
                continue
            c1 = cs.c1
            c1n = c1.sign * c1.m
            for n in cfg.n_values:
                if not C1_BOUND_Q.holds(cs, n):
                    skipped_r += 1
                    continue
                half = Fraction(1, 1 << (n + 1))
                for ell in range(max(2, q), p):
                    for k in range(1 << (ell - 1), 1 << ell):
                        for sgn in (1, -1):
                            z = Fpn(sgn, k, -n, fmt)
                            zv = z.value
                            for x in _fpns_in_interval(
                                (zv - half) / r.value, (zv + half) / r.value, fmt
                            ):
                                cases += 1
                                if not fits_scaled(*_x_minus_zc1(x, z, c1n, c1.e), p, fmt):
                                    failures.append(
                                        {
                                            "x": x.to_text(),
                                            "z": z.to_text(),
                                            "R": r.to_text(),
                                            "N": n,
                                            "q": q,
                                            "ell": ell,
                                        }
                                    )
    stats = {"r_values": len(rs), "skipped_r": skipped_r}
    return CheckResult("correct1", cfg.to_dict(), cases, sorted_failures(failures), stats)


# what check_correct2 asks at each N: z extraction's hypotheses, and the
# general-q first step's bound on C1
_CORRECT2_HYPOTHESES = tuple(h for h in HYPOTHESES if h.theorem == "z-extraction") + (C1_BOUND_Q,)


def check_correct2(cfg: CheckConfig) -> CheckResult:
    """Appendix variant: general q with R*C1 <= 1, z from the extraction
    algorithm; x - z*C1 is a p-bit FPN for every in-range x.  An N that
    fails _CORRECT2_HYPOTHESES counts in skipped_r."""
    _check_values(cfg, "n_values", "q_values")
    cfg = _own_window(cfg, 12)
    fmt, xs, rs = _sweep_space(cfg, len(cfg.q_values))
    p = fmt.p
    failures = []
    cases = 0
    skipped_r = 0
    rc1_filtered = 0
    for q in cfg.q_values:
        for r in rs:
            cs = _general_q_set(r, q, cfg.ties)
            if cs is None:
                skipped_r += 1
                continue
            if not RC1_AT_MOST_1.holds(cs, 0):
                rc1_filtered += 1
                continue
            c1 = cs.c1
            c1n = c1.sign * c1.m
            for n in cfg.n_values:
                if first_failure(cs, n, _CORRECT2_HYPOTHESES) is not None:
                    skipped_r += 1
                    continue
                cs_n = replace(cs, n=n)
                for x in xs:
                    if not xr_in_bounds(x, r, n):
                        continue
                    cases += 1
                    try:
                        z, _ = extract_z(x, cs_n, n, cfg.ties)
                    except TheoremViolation as exc:
                        fail = {"error": str(exc)}
                    else:
                        if fits_scaled(*_x_minus_zc1(x, z, c1n, c1.e), p, fmt):
                            continue
                        fail = {"z": z.to_text()}
                    failures.append({"x": x.to_text(), "R": r.to_text(), "N": n, "q": q, **fail})
    stats = {"r_values": len(rs), "skipped_r": skipped_r, "rc1_filtered": rc1_filtered}
    return CheckResult("correct2", cfg.to_dict(), cases, sorted_failures(failures), stats)


# ---------------------------------------------------------------------------
# second step
# ---------------------------------------------------------------------------


def _random_in_range_x(rng: random.Random, fmt: Format, r: Fpn, n: int) -> Fpn:
    lo_m, hi_m = 1 << (fmt.p - 1), 1 << fmt.p
    e_hi = -n - 2
    e_lo = e_hi - fmt.p - 24
    while True:
        x = Fpn(
            1 if rng.random() < 0.5 else -1,
            rng.randrange(lo_m, hi_m),
            rng.randrange(e_lo, e_hi + 1),
            fmt,
        )
        if xr_in_bounds(x, r, n):
            return x


def _thm6_chunk(args: tuple) -> tuple[int, list[dict], dict]:
    constant, fmt_label, n, q, seed, trials, ties = args
    fmt = FORMATS[fmt_label]
    cs = gen_constants(NAMED_CONSTANTS[constant], fmt, n=n, q=q)
    rng = random.Random(seed)
    failures = []
    ops_are_nine = True
    cases = 0
    for _ in range(trials):
        x = _random_in_range_x(rng, fmt, cs.r, n)
        cases += 1
        entry = _run_second_step_case(x, cs, n, ties)
        if entry is not None:
            failures.append(entry)
            if entry.get("ops") not in (None, 9):
                ops_are_nine = False
    return cases, failures, {"ops_always_9": ops_are_nine}


def _run_second_step_case(x: Fpn, cs: ConstantSet, n: int, ties: str) -> dict | None:
    try:
        z, _ = extract_z(x, cs, n, ties)
        u, exact1 = first_step(x, z, cs, ties)
        ss = second_step(x, z, u, cs, ties)
    except (TheoremViolation, ReductionRangeError) as exc:
        return {"x": x.to_text(), "N": n, "error": str(exc)}
    if not exact1 or not ss.exact or ss.ops != 9:
        return {
            "x": x.to_text(),
            "N": n,
            "exact_first": exact1,
            "exact_second": ss.exact,
            "ops": ss.ops,
        }
    return None


def check_thm6(cfg: CheckConfig) -> CheckResult:
    """Second-step equality v1 + v2 = x - z*C1 - z*C2, with Fast2Sum
    preconditions verified on every call and 9 rounded ops per step.

    Randomized mode drives the real constant sets; exhaustive mode
    sweeps a small precision with synthetic C2 multiples on the grid.
    """
    if cfg.mode == "randomized":
        return _check_thm6_randomized(cfg)
    return _check_thm6_exhaustive(cfg)


def _check_at_least_1(cfg: CheckConfig, *names: str) -> None:
    # no trials, an empty x window or an R stride below 1 would pass
    # without running a case
    for name in names:
        value = getattr(cfg, name)
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _check_values(cfg: CheckConfig, *names: str) -> None:
    # an empty N or q list would pass without running a case
    for name in names:
        if not getattr(cfg, name):
            raise ValueError(f"{name} is empty: the check would run no case")


def _chunks(trials: int, chunk: int = 100_000) -> list[tuple[int, int]]:
    """(index, size) of each chunk of a campaign."""
    return [(idx, min(chunk, trials - start)) for idx, start in enumerate(range(0, trials, chunk))]


def _run_campaign(fn, tasks: list, jobs: int) -> list:
    """fn over the tasks in order, on a process pool when jobs > 1."""
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


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
    parts = _run_campaign(_thm6_chunk, tasks, cfg.jobs)
    cases = sum(p[0] for p in parts)
    failures = []
    ops_nine = True
    for _, fails, st in parts:
        failures.extend(fails)
        ops_nine = ops_nine and st["ops_always_9"]
    stats = {"ops_always_9": ops_nine, "chunks": len(tasks)}
    return CheckResult("thm6", cfg.to_dict(), cases, sorted_failures(failures), stats)


def _check_thm6_exhaustive(cfg: CheckConfig) -> CheckResult:
    _check_values(cfg, "n_values")
    if tuple(cfg.q_values) != (2,):
        raise ValueError(f"exhaustive thm6 runs q=2 only, got q_values={list(cfg.q_values)}")
    # up to 8 C2 multiples per (R, N)
    cfg = _own_window(cfg, 10)
    fmt, xs, rs = _sweep_space(cfg, 8)
    failures = []
    cases = 0
    skipped = 0
    for r in rs:
        for n in cfg.n_values:
            try:
                base = synthetic_set(r, n=n, q=2)
            except HypothesisViolation:
                skipped += 1
                continue
            grid = 8 * ulp2(base.c1)
            kmax = int((4 * ulp(base.c1)) / grid)
            c2_multiples = sorted({0, 1, -1, 5, -5, kmax, -kmax, kmax - 1})
            for kk in c2_multiples:
                try:
                    cs = synthetic_set(r, n=n, q=2, c2=Fpn.from_fraction(kk * grid, fmt))
                except (HypothesisViolation, ValueError):
                    skipped += 1
                    continue
                for x in xs:
                    if not xr_in_bounds(x, r, n):
                        continue
                    cases += 1
                    entry = _run_second_step_case(x, cs, n, cfg.ties)
                    if entry is not None:
                        entry.update({"R": r.to_text(), "C2": cs.c2.to_text()})
                        failures.append(entry)
    stats = {"r_values": len(rs), "skipped": skipped}
    return CheckResult("thm6", cfg.to_dict(), cases, sorted_failures(failures), stats)


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


def _eft_chunk(args: tuple) -> tuple[int, list[dict]]:
    seed, trials, ties = args
    rng = random.Random(seed)
    fmt = DOUBLE
    lo_m, hi_m = 1 << (fmt.p - 1), 1 << fmt.p
    failures = []
    for _ in range(trials):
        a = Fpn(1 if rng.random() < 0.5 else -1, rng.randrange(lo_m, hi_m), rng.randrange(-30, 30), fmt)
        b = Fpn(1 if rng.random() < 0.5 else -1, rng.randrange(lo_m, hi_m), rng.randrange(-30, 30), fmt)
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
    return trials, failures


def check_eft(cfg: CheckConfig) -> CheckResult:
    """Random valid Fast2Sum/Fast2Mult calls recompose exactly."""
    _check_at_least_1(cfg, "trials")
    tasks = [(cfg.seed + 104729 * idx, take, cfg.ties) for idx, take in _chunks(cfg.trials)]
    parts = _run_campaign(_eft_chunk, tasks, cfg.jobs)
    cases = sum(p[0] for p in parts)
    failures = [f for _, fails in parts for f in fails]
    return CheckResult("eft", cfg.to_dict(), cases, sorted_failures(failures), {})


# ---------------------------------------------------------------------------
# the two-rounding failure demo
# ---------------------------------------------------------------------------


def demo_codywaite(max_scan: int = 10_000) -> dict:
    """Find a double x where the classic two-rounding first step
    o(x - o(z*C1_full)) commits a rounding error while the fma step is
    exact, with C1_full the full-precision nearest to 1/R.

    Returns the first such case of the scan with both residuals and the
    cancellation count; existence is the point, not a specific x.
    """
    fmt = DOUBLE
    cs = gen_constants(PI, fmt)
    c1_full = round_rational(*recip_ratio(cs.r), fmt, fmt.p)
    for k in range(3, max_scan):
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
    return fn(cfg)
