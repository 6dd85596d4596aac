"""The three workloads, their seeded inputs, and their untraced rounds.

Each workload runs whole rounds until its time is up.  A round is the
same list of operations every time; only the seeded inputs change.

campaign  thm6 campaigns (pi and ln 2, double, N in {0, 10}, ties-even)
          through `run_check` at jobs=1 and jobs=2 and through `argred
          verify` at jobs=1, one eft campaign, and a sample of
          campaign-like cases re-derived stage by stage.
reduce    closed loop, one caller: `reduce(..., measure_residual=True)`
          over pi and ln 2, the four presets, N in {0, 5, 10}, a quarter
          of the inputs under ties-away; plus `argred reduce --json` and
          `argred constants --all --audit --json` in process.
sweep     the exhaustive correct3 sweep at p = 8, N in {0, 1, 2}, window
          12, every R_STEP-th R, ties-even twice through `run_check` and
          ties-away through `argred verify`, plus a re-derived sample.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

from argred import (
    DOUBLE,
    DOUBLE_EXTENDED,
    QUAD,
    SINGLE,
    Format,
    Fpn,
    OpCounter,
    extract_z,
    fast2mult,
    fast2sum,
    first_step,
    gen_constants,
    reduce,
    second_step,
    synthetic_set,
)
from argred.cli import main as cli_main
from argred.realnum import LN2, PI
from argred.theorems import CheckConfig, run_check

import checks as ck
from harness import percentile, speed, timed

FORMATS = {"single": SINGLE, "double": DOUBLE, "double-extended": DOUBLE_EXTENDED, "quad": QUAD}
CONSTANTS = {"pi": PI, "ln2": LN2}


def fpn(v: Fraction, fmt: Format) -> Fpn:
    """The Fpn holding a dyadic value of at most p bits."""
    if v == 0:
        return Fpn(1, 0, fmt.e_min_q, fmt)
    return Fpn(1 if v > 0 else -1, abs(v.numerator), 1 - v.denominator.bit_length(), fmt)


def run_cli(argv: list[str]) -> str:
    """`argred <argv>` in process; its stdout, or an error on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"argred {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def xr_bound(p: int, n: int) -> Fraction:
    """The admissible |x*R|: 2^(p-N-2) - 2^-N."""
    return Fraction(2) ** (p - n - 2) - Fraction(2) ** -n


def reduction_values(out) -> dict:
    """A ReductionOutput as exact values for checks.reduce_failures."""
    return {
        "z": ck.val(out.z), "u": ck.val(out.u), "v1": ck.val(out.v1), "v2": ck.val(out.v2),
        "w": ck.val(out.w), "s": out.s, "ops": out.rounding_ops_second,
        "exact_first": out.exact_first, "exact_second": out.exact_second,
        "residual_lo": out.residual_lo, "residual_hi": out.residual_hi,
    }


def round_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


class Workload:
    """Base: seeded rounds, one Tally, and the samples that become metrics."""

    def __init__(self, seed: int, oracle: ck.Oracle, tally) -> None:
        self.seed = seed
        self.oracle = oracle
        self.tables = oracle.tables
        self.tally = tally
        self.samples: dict[str, list[float]] = {}
        self._prepared = None

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def prepare(self) -> None:
        """The program-side set-up that setup_s times: constant sets and
        round 0's inputs."""
        self.make_sets()
        self._prepared = self.inputs(0)

    def make_sets(self) -> None:
        self.sets = {}

    def check_sets(self) -> None:
        """Each constant set built by make_sets against the published
        tables and mpmath's 1/C."""
        for key, cs in self.sets.items():
            c, f = key[:2]
            vals = [ck.val(v) for v in (cs.r, cs.c1, cs.c2, cs.c3)]
            self.tally.check(ck.constant_set_failures(c, f, *vals, self.oracle))

    def inputs(self, i: int):
        raise NotImplementedError

    def run_round(self, i: int) -> None:
        state = self._prepared if i == 0 and self._prepared is not None else self.inputs(i)
        self.round(state)

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

THM6_TRIALS = 1_000         # per N; two N values give jobs=2 two chunks
THM6_N = (0, 10)
EFT_TRIALS = 5_000
CAMPAIGN_SAMPLE = 10        # re-derived cases per constant and N per round
EFT_SAMPLE = 20


def campaign_x(rng: random.Random, p: int, r: Fraction, n: int) -> Fraction:
    """A random in-range double like the thm6 campaign draws: uniform
    significand, exponent in the 2^(p+24) binades below 2^(-N-2)."""
    e_hi = -n - 2
    while True:
        m = rng.randrange(1 << (p - 1), 1 << p)
        x = (1 if rng.random() < 0.5 else -1) * Fraction(m) * Fraction(2) ** rng.randrange(e_hi - p - 24, e_hi + 1)
        if abs(x * r) <= xr_bound(p, n):
            return x


def eft_pair(rng: random.Random, p: int) -> tuple[Fraction, Fraction]:
    def one():
        m = rng.randrange(1 << (p - 1), 1 << p)
        return (1 if rng.random() < 0.5 else -1) * Fraction(m) * Fraction(2) ** rng.randrange(-30, 30)
    return one(), one()


def thm6_case(call, case, xf: Fpn, n: int, cs):
    """One campaign case through extract_z -> first_step -> second_step.

    `call(name, case, fn, *args, **kwargs)` makes each call: Tally.call in
    the untraced rounds, Tracer.call in the traced run.  Returns (z, the
    first step's (u, exact), the second step's result, rounded operations
    before the second step, rounded operations in it), or None when a call
    failed.
    """
    head, second = OpCounter(), OpCounter()
    zi = call("reduction.extract_z", case, extract_z, xf, cs, n, counter=head)
    fs = zi and call("reduction.first_step", case, first_step, xf, zi[0], cs, counter=head)
    ss = fs and call("reduction.second_step", case, second_step, xf, zi[0], fs[0], cs, counter=second)
    return ss and (zi[0], fs, ss, head.rounded, second.rounded)


def thm6_failures(x: Fraction, n: int, table: dict, out) -> list[str]:
    """The stage conclusions of a thm6_case result, re-derived."""
    z, (u, exact_first), ss, _, second_ops = out
    f = ck.stage_failures(
        x, ck.val(z), n, table["R"], table["C1"], table["C2"],
        u=ck.val(u), v1=ck.val(ss.v1), v2=ck.val(ss.v2), ops=ss.ops, p=DOUBLE.p,
    )
    if second_ops != 9 or not (exact_first and ss.exact and ss.last_line_exact):
        f.append("second-step op counter or exactness flags wrong")
    return f


@dataclass
class CampaignRound:
    thm6_seeds: dict
    eft_seed: int
    xs: list            # (constant, N, x value, x Fpn)
    pairs: list         # (a value, b value, a Fpn, b Fpn)


class Campaign(Workload):
    def make_sets(self) -> None:
        self.sets = {(c, "double"): gen_constants(CONSTANTS[c], DOUBLE) for c in CONSTANTS}

    def inputs(self, i: int, sample: int = CAMPAIGN_SAMPLE) -> CampaignRound:
        rng = round_rng(self.seed, i)
        p = DOUBLE.p
        xs = []
        for c in CONSTANTS:
            r = self.tables[c]["double"]["R"]
            for n in THM6_N:
                for _ in range(sample):
                    x = campaign_x(rng, p, r, n)
                    xs.append((c, n, x, fpn(x, DOUBLE)))
        pairs = []
        for _ in range(EFT_SAMPLE):
            a, b = eft_pair(rng, p)
            pairs.append((a, b, fpn(a, DOUBLE), fpn(b, DOUBLE)))
        return CampaignRound(
            {c: rng.randrange(1 << 31) for c in CONSTANTS}, rng.randrange(1 << 31), xs, pairs
        )

    def round(self, inp: CampaignRound) -> None:
        t = self.tally
        cases = THM6_TRIALS * len(THM6_N)
        for c in CONSTANTS:
            seed = inp.thm6_seeds[c]
            cfg = dict(
                theorem="thm6", mode="randomized", constant=c, fmt="double",
                n_values=THM6_N, trials=THM6_TRIALS, seed=seed,
            )
            dt, raw, res = timed(t, run_check, CheckConfig(jobs=1, **cfg))
            rec = None
            if res is not None:
                rec = res.to_record()
                t.check(ck.campaign_failures(rec, cases, len(THM6_N)))
                self.sample("thm6_cases_per_s", res.cases / dt)
                self.sample("raw_thm6_cases_per_s", res.cases / raw)
            argv = [
                "verify", "--theorem", "thm6", "--const", c, "--format", "double",
                "--N", ",".join(map(str, THM6_N)), "--trials", str(THM6_TRIALS),
                "--seed", str(seed), "--jobs", "1", "--json",
            ]
            dt, raw, text = timed(t, run_cli, argv)
            if text is not None:
                t.check(ck.campaign_failures(json.loads(text), cases, len(THM6_N), other=rec))
                self.sample("cli_s", dt)
                self.sample("raw_cli_s", raw)
            # jobs=2 is timed raw: its wall time on a 2-CPU VM is set by how
            # soon the second CPU picks up a worker, which the reference
            # loop does not see, so it is printed but not bounded
            _, raw, res2 = timed(t, run_check, CheckConfig(jobs=2, **cfg))
            if res2 is not None:
                t.check(ck.campaign_failures(res2.to_record(), cases, len(THM6_N), other=rec))
                self.sample("raw_thm6_jobs2_cases_per_s", res2.cases / raw)
        dt, _, res = timed(t, run_check, CheckConfig(theorem="eft", trials=EFT_TRIALS, seed=inp.eft_seed, jobs=1))
        if res is not None:
            t.check(ck.campaign_failures(res.to_record(), EFT_TRIALS, 1))
            self.sample("eft_cases_per_s", res.cases / dt)
        self.check_sample(inp)

    def check_sample(self, inp: CampaignRound) -> None:
        """Campaign-like cases through the public stages, re-derived."""
        t = self.tally
        for i, (c, n, x, xf) in enumerate(inp.xs):
            out = thm6_case(t.call, f"thm6:{i}", xf, n, self.sets[c, "double"])
            if out is not None:
                t.check(thm6_failures(x, n, self.tables[c]["double"], out))
        for a, b, af, bf in inp.pairs:
            big, small = (af, bf) if abs(a) >= abs(b) else (bf, af)
            _, sum2 = t.run(fast2sum, big, small)
            _, mul2 = t.run(fast2mult, af, bf)
            if sum2 is not None and mul2 is not None:
                t.check(ck.eft_failures(a, b, *map(ck.val, sum2), *map(ck.val, mul2), DOUBLE.p, "even"))

    def metrics(self):
        return {
            "cases_per_s": (self.median("thm6_cases_per_s"), "cases/s"),
            "cli_ms_p50": (1e3 * self.median("cli_s"), "ms"),
        }, {
            "thm6_cases_per_s": (self.median("thm6_cases_per_s"), "cases/s"),
            "raw_thm6_jobs2_cases_per_s": (self.median("raw_thm6_jobs2_cases_per_s"), "cases/s"),
            "eft_cases_per_s": (self.median("eft_cases_per_s"), "cases/s"),
            "raw_cases_per_s": (self.median("raw_thm6_cases_per_s"), "cases/s"),
            "raw_cli_ms_p50": (1e3 * self.median("raw_cli_s"), "ms"),
        }


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

REDUCE_N = (0, 5, 10)
# per (constant, format, N): uniform in-range x, x nearest k*C*2^-N,
# |x*R| at the top of the admissible range, and |x*R| < 2^(-N-1)
KINDS = ("uniform",) * 4 + ("near_kC",) * 2 + ("top", "zero")
AWAY_PER_COMBO = 2          # of len(KINDS) inputs run under ties-away


@dataclass
class ReduceCase:
    const: str
    fmt: str
    n: int
    kind: str
    x: Fraction
    xf: Fpn
    ties: str
    expect_z: Fraction | None


def decimal_text(v: Fraction, digits: int = 12) -> str:
    """v cut toward zero to `digits` significant decimal digits."""
    a = abs(v)
    e = len(str(a.numerator)) - len(str(a.denominator))
    while Fraction(10) ** e > a:
        e -= 1
    while Fraction(10) ** (e + 1) <= a:
        e += 1
    q = a / Fraction(10) ** (e - digits + 1)
    return f"{'-' if v < 0 else ''}{q.numerator // q.denominator}e{e - digits + 1}"


class Reduce(Workload):
    def __init__(self, seed, oracle, tally) -> None:
        super().__init__(seed, oracle, tally)
        self.c_intervals = oracle.consts

    def make_sets(self) -> None:
        self.sets = {
            (c, f, n): gen_constants(CONSTANTS[c], FORMATS[f], n=n)
            for c in CONSTANTS for f in FORMATS for n in REDUCE_N
        }

    def make_x(self, rng, kind: str, c: str, f: str, n: int):
        p = FORMATS[f].p
        r = self.tables[c][f]["R"]
        sign = 1 if rng.random() < 0.5 else -1
        if kind == "uniform":
            t = Fraction(rng.randrange(1, 1 << (p + 16)), 1 << (p + 16))
            return sign * ck.truncate(xr_bound(p, n) / r * t, p), None
        if kind == "near_kC":
            k = sign * rng.randrange(2, 1 << rng.randrange(2, p - 3))
            z = Fraction(k) / 2**n
            return ck.nearest(z * sum(self.c_intervals[c]) / 2, p), z
        if kind == "top":
            top = ck.truncate(xr_bound(p, n) / r, p)
            x = top - rng.randrange(4) * Fraction(2) ** (ck.floor_log2(top) - p + 1)
            return sign * x, None
        t = Fraction(rng.randrange(1, 1 << 32), 1 << 32)
        return sign * ck.truncate(Fraction(1, 2 ** (n + 1)) / r * t, p), Fraction(0)

    def inputs(self, i: int):
        rng = round_rng(self.seed, i)
        cases = []
        for c in CONSTANTS:
            for f, fmt in FORMATS.items():
                for n in REDUCE_N:
                    away = set(rng.sample(range(len(KINDS)), AWAY_PER_COMBO))
                    for j, kind in enumerate(KINDS):
                        x, z = self.make_x(rng, kind, c, f, n)
                        ties = "away" if j in away else "even"
                        cases.append(ReduceCase(c, f, n, kind, x, fpn(x, fmt), ties, z))
        rng.shuffle(cases)
        cli = []
        for j, (c, f) in enumerate((c, f) for c in CONSTANTS for f in FORMATS):
            case = rng.choice([k for k in cases if (k.const, k.fmt) == (c, f)])
            text = ck.to_text(case.x) if j % 2 == 0 else decimal_text(case.x)
            cli.append((case, text))
        return cases, cli

    def round(self, inp) -> None:
        t = self.tally
        cases, cli = inp
        # calls are timed one by one and scaled by the speed measured
        # around the whole loop; outputs are checked after it
        results = []
        s0 = speed()
        for k in cases:
            dt, out = t.run(reduce, k.xf, self.sets[k.const, k.fmt, k.n], ties=k.ties, measure_residual=True)
            if out is not None:
                results.append((k, out, dt))
        f = (s0 + speed()) / 2
        if results:
            busy = sum(dt for _, _, dt in results)
            self.sample("reduce_rate", len(results) / (busy * f))
            self.sample("raw_reduce_rate", len(results) / busy)
        for k, out, dt in results:
            self.sample("reduce_s", dt * f)
            t.check(ck.reduce_failures(
                k.x, k.n, FORMATS[k.fmt].p, self.tables[k.const][k.fmt],
                self.c_intervals[k.const], reduction_values(out), k.expect_z,
            ))
        results = []
        s0 = speed()
        for k, text in cli:
            argv = [
                "reduce", f"--x={text}", "--const", k.const, "--format", k.fmt,
                "--N", str(k.n), "--ties", k.ties, "--json",
            ]
            dt, outp = t.run(run_cli, argv)
            if outp is not None:
                results.append((k, text, outp, dt))
        f = (s0 + speed()) / 2
        for k, text, outp, dt in results:
            self.sample("cli_s", dt * f)
            self.sample("raw_cli_s", dt)
            t.check(self.cli_failures(k, text, json.loads(outp)))
        dt, _, outp = timed(t, run_cli, ["constants", "--all", "--audit", "--json"])
        if outp is not None:
            self.sample("constants_s", dt)
            t.check(ck.constants_json_failures(json.loads(outp), self.oracle))

    def cli_failures(self, k: ReduceCase, text: str, rec: dict) -> list[str]:
        p = FORMATS[k.fmt].p
        x = ck.parse_text(text) if "*" in text else ck.nearest(Fraction(text), p, k.ties)
        f = [] if ck.parse_text(rec["x"]) == x else ["cli reduce: x is not the input rounded"]
        vals = {key: ck.parse_text(rec[key]) for key in ("z", "u", "v1", "v2", "w")}
        vals.update(
            s=Fraction(rec["s"]), ops=rec["rounding_ops_second"], exact_first=rec["exact_first"],
            exact_second=rec["exact_second"], residual_lo=Fraction(0),
            residual_hi=None if rec["residual_hi"] is None else Fraction(rec["residual_hi"]),
        )
        return f + ck.reduce_failures(x, k.n, p, self.tables[k.const][k.fmt], self.c_intervals[k.const], vals)

    def metrics(self):
        lat_us = [1e6 * v for v in self.samples["reduce_s"]]
        return {
            "cases_per_s": (self.median("reduce_rate"), "cases/s"),
            "cli_ms_p50": (1e3 * self.median("cli_s"), "ms"),
        }, {
            "reduce_us_p50": (statistics.median(lat_us), "us"),
            "reduce_us_p99": (percentile(lat_us, 99), "us"),
            "reduce_calls": (len(lat_us), "count"),
            "cli_reduce_us_p50": (1e6 * self.median("cli_s"), "us"),
            "constants_all_ms": (1e3 * self.median("constants_s"), "ms"),
            "raw_cases_per_s": (self.median("raw_reduce_rate"), "cases/s"),
            "raw_cli_ms_p50": (1e3 * self.median("raw_cli_s"), "ms"),
        }


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_P = 8
SWEEP_FMT = Format(p=SWEEP_P, e_min_q=-5 * SWEEP_P, e_max=12 * SWEEP_P)
SWEEP_N = (0, 1, 2)
SWEEP_WINDOW = 12
R_STEP = 64
SWEEP_SAMPLE = 60
# run_check sweeps per round: the host's speed changes in phases of
# seconds, so cases_per_s steadies with the share of the run spent on it
SWEEP_CALLS = 2


def sweep_case(call, case, xf: Fpn, n: int, cs, ties: str):
    """One sweep case through extract_z -> first_step (see thm6_case):
    (z, the first step's (u, exact)), or None when a call failed."""
    zi = call("reduction.extract_z", case, extract_z, xf, cs, n, ties, check=False)
    fs = zi and call("reduction.first_step", case, first_step, xf, zi[0], cs, ties)
    return fs and (zi[0], fs)


class Sweep(Workload):
    def __init__(self, seed, oracle, tally) -> None:
        super().__init__(seed, oracle, tally)
        p = SWEEP_P
        # the documented case space: R over [1/2, 2), x over `window`
        # binades centred on 1, both signs
        self.rs = [Fraction(m, 2 ** -e) for e in (-p, -p + 1) for m in range(1 << (p - 1), 1 << p, R_STEP)]
        lo_b = -(SWEEP_WINDOW // 2)
        self.xs_pos = [
            Fraction(m) * Fraction(2) ** (b - p + 1)
            for b in range(lo_b, lo_b + SWEEP_WINDOW) for m in range(1 << (p - 1), 1 << p)
        ]
        self.c1 = {r: ck.nearest(1 / r, p - 2) for r in self.rs}
        # synthetic_set refuses an R whose C1 is a power of two
        self.usable = [r for r in self.rs if not ck.is_pow2(self.c1[r])]
        self.in_range = sum(
            2 * sum(1 for x in self.xs_pos if x * r <= xr_bound(p, n)) for r in self.usable for n in SWEEP_N
        )
        self.x_values = 2 * len(self.xs_pos)

    def inputs(self, i: int):
        rng = round_rng(self.seed, i)
        out = []
        while len(out) < SWEEP_SAMPLE:
            r = rng.choice(self.usable)
            n = rng.choice(SWEEP_N)
            x = (1 if rng.random() < 0.5 else -1) * rng.choice(self.xs_pos)
            if abs(x * r) <= xr_bound(SWEEP_P, n):
                ties = "away" if len(out) % 2 else "even"
                out.append((r, n, x, fpn(r, SWEEP_FMT), fpn(x, SWEEP_FMT), ties))
        return out

    def round(self, inp) -> None:
        t = self.tally
        want = (len(self.rs), len(self.rs) - len(self.usable), self.x_values, len(SWEEP_N), self.in_range)
        cfg = CheckConfig(
            theorem="correct3", p=SWEEP_P, r_step=R_STEP, n_values=SWEEP_N,
            window=SWEEP_WINDOW, ties="even",
        )
        for _ in range(SWEEP_CALLS):
            dt, raw, res = timed(t, run_check, cfg)
            if res is not None:
                t.check(ck.sweep_failures(res.to_record(), SWEEP_P, *want))
                self.sample("sweep_cases_per_s", res.cases / dt)
                self.sample("raw_sweep_cases_per_s", res.cases / raw)
        argv = [
            "verify", "--theorem", "correct3", "--p", str(SWEEP_P), "--N", ",".join(map(str, SWEEP_N)),
            "--window", str(SWEEP_WINDOW), "--r-step", str(R_STEP), "--exhaustive", "--ties", "away", "--json",
        ]
        dt, raw, text = timed(t, run_cli, argv)
        if text is not None:
            t.check(ck.sweep_failures(json.loads(text), SWEEP_P, *want))
            self.sample("cli_s", dt)
            self.sample("raw_cli_s", raw)
        for i, (r, n, x, rf, xf, ties) in enumerate(inp):
            _, cs = t.run(synthetic_set, rf, n=max(SWEEP_N), q=2)
            out = cs and sweep_case(t.call, f"sweep:{i}", xf, n, cs, ties)
            if out is not None:
                t.check(self.case_failures(r, n, x, cs, out))

    def case_failures(self, r: Fraction, n: int, x: Fraction, cs, out) -> list[str]:
        """The stage conclusions of a sweep_case result, re-derived."""
        z, (u, exact) = out
        c1 = self.c1[r]
        f = ck.stage_failures(x, ck.val(z), n, r, c1, u=ck.val(u), p=SWEEP_P)
        if ck.val(cs.c1) != c1:
            f.append("synthetic C1 is not nearest(1/R) at p-2 bits")
        if not ck.fits(x - ck.val(z) * c1, SWEEP_P, SWEEP_FMT.e_min_q) or not exact:
            f.append("x - z*C1 is not a p-bit FPN or the fma was inexact")
        return f

    def metrics(self):
        return {
            "cases_per_s": (self.median("sweep_cases_per_s"), "cases/s"),
            "cli_ms_p50": (1e3 * self.median("cli_s"), "ms"),
        }, {
            "sweep_cases_per_s": (self.median("sweep_cases_per_s"), "cases/s"),
            "raw_cases_per_s": (self.median("raw_sweep_cases_per_s"), "cases/s"),
            "raw_cli_ms_p50": (1e3 * self.median("raw_cli_s"), "ms"),
        }


