"""The traced run: per-layer spans recorded around calls into argred.

Whatever --workload names, a traced round replays a seeded subset of
every workload's inputs through the public functions of each layer:

  reduction  extract_z -> first_step -> second_step -> third_step ->
             residual_interval, and reduce itself on the same input
  softfp     Fpn(), add, mul, fma, round_nearest, fast2sum, fast2mult
             on campaign operands, in batches (one span per batch)
  realnum    pi/ln2 enclosures at 6p bits, safe_round, round_rational
  constgen   gen_constants, audit, synthetic_set
  theorems   run_check for thm6 (jobs=1 and jobs=2), eft and correct3
  cli        argred reduce / constants, beside gen_constants + reduce

A span is (id, name, start_ns, end_ns, parent id, case id, calls,
speed); speed is set on the long spans (harness runs, whole replays),
which are bracketed by harness.speed() like the untraced timings.
Spans stay in memory and are written out when the run ends; self times
are derived from them.  The stage replay also runs once untraced in
every round, and the difference is reported as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from fractions import Fraction

from argred import (
    DOUBLE,
    Fpn,
    audit,
    extract_z,
    fast2mult,
    fast2sum,
    first_step,
    fma,
    gen_constants,
    mul,
    add,
    reduce,
    residual_interval,
    round_nearest,
    safe_round,
    second_step,
    synthetic_set,
    third_step,
)
from argred.realnum import round_rational
from argred.theorems import CheckConfig, run_check
from argred.reduction import sigma_for

import checks as ck
import workloads as wl
from harness import speed

# large enough that jobs=2 has work to share (10^4 cases per chunk)
THM6_TRIALS = 10_000
EFT_TRIALS = 10_000
REDUCE_EVERY = 4            # replay every 4th reduce input
# campaign cases per constant and N: enough that the harness-minus-stage
# difference (a few us per case) is not lost in noise
TRACE_CAMPAIGN_SAMPLE = 100


class Tracer:
    """Spans around calls into argred.

    With ``detail`` off, calls run bare and only ``section`` spans are
    recorded: that is the untraced replay the overhead is measured
    against.  A call that raises returns None and, when traced, counts as
    a failed operation.
    """

    def __init__(self, tally) -> None:
        self.tally = tally
        self.detail = True
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name, case, calls=1) -> list:
        span = [len(self.spans), name, 0, 0, self._stack[-1] if self._stack else None, case, calls, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = time.perf_counter_ns()
        return span

    def _close(self, span) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    def _run(self, name, fn, args, kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if self.detail:
                self.tally.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def call(self, name, case, fn, *args, **kwargs):
        if not self.detail:
            return self._run(name, fn, args, kwargs)
        self.tally.attempted += 1
        span = self._open(name, case)
        try:
            return self._run(name, fn, args, kwargs)
        finally:
            self._close(span)

    @contextlib.contextmanager
    def section(self, name, case, scaled: bool = False):
        s0 = speed() if scaled else None
        span = self._open(name, case)
        try:
            yield
        finally:
            self._close(span)
            if scaled:
                span[7] = (s0 + speed()) / 2

    def scaled_call(self, name, case, fn, *args):
        """A long call, its span bracketed by harness.speed()."""
        self.tally.attempted += 1
        with self.section(name, case, scaled=True):
            return self._run(name, fn, args, {})

    def group(self, name, case):
        return self.section(name, case) if self.detail else contextlib.nullcontext()

    def batch(self, name, case, fn, arglist):
        """One span around len(arglist) calls of a fast function."""
        self.tally.attempted += 1
        span = self._open(name, case, len(arglist))
        try:
            for args in arglist:
                fn(*args)
        finally:
            self._close(span)


def write_spans(spans, path) -> None:
    keys = ("id", "name", "start_ns", "end_ns", "parent", "case", "calls", "speed")
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------


def replay_stages(tr, rnd, camp, camp_in, red, red_in, sweep, sweep_in):
    """The stage replay of all three workloads.

    Returns the campaign cases' rounded operations (OpCounter) and the
    checks to run on the outputs, left for after the timed replay.  The
    campaign cases are timed per constant, so that the harness's own time
    can be taken against the cases of its constant.
    """
    tag = "traced" if tr.detail else "untraced"
    ops = 0
    todo = []
    for c in wl.CONSTANTS:
        with tr.section(f"{tag}.thm6.{c}", f"thm6:{rnd}:{c}", scaled=True):
            for i, (c_i, n, x, xf) in enumerate(camp_in.xs):
                if c_i != c:
                    continue
                out = wl.thm6_case(tr.call, f"thm6:{rnd}:{i}", xf, n, camp.sets[c, "double"])
                if out is not None:
                    ops += out[3] + out[4]
                    todo.append(lambda x=x, n=n, g=camp.tables[c]["double"], out=out: wl.thm6_failures(x, n, g, out))
    with tr.section(f"{tag}.reduce", f"reduce:{rnd}", scaled=True):
        todo += _replay_reduce(tr, rnd, red, red_in)
    sets = {}
    for r, _, _, rf, _, _ in sweep_in:
        if r not in sets:
            sets[r] = tr.call("constgen.synthetic_set", f"sweep:{rnd}:R={r}", synthetic_set, rf, n=max(wl.SWEEP_N), q=2)
    with tr.section(f"{tag}.sweep", f"sweep:{rnd}", scaled=True):
        for i, (r, n, x, _, xf, ties) in enumerate(sweep_in):
            out = sets[r] and wl.sweep_case(tr.call, f"sweep:{rnd}:{i}", xf, n, sets[r], ties)
            if out is not None:
                todo.append(lambda r=r, n=n, x=x, out=out: sweep.case_failures(r, n, x, sets[r], out))
    return ops, todo


def _replay_reduce(tr, rnd, red, red_in):
    todo = []
    for i, k in enumerate(red_in[0][::REDUCE_EVERY]):
        cs = red.sets[k.const, k.fmt, k.n]
        case = f"reduce:{rnd}:{i}"
        with tr.group("case.reduce", case):
            out = tr.call("reduction.reduce", case, reduce, k.xf, cs, ties=k.ties, measure_residual=True)
            zi = tr.call("reduction.extract_z", case, extract_z, k.xf, cs, ties=k.ties)
            fs = zi and tr.call("reduction.first_step", case, first_step, k.xf, zi[0], cs, k.ties)
            ss = fs and tr.call("reduction.second_step", case, second_step, k.xf, zi[0], fs[0], cs, k.ties)
            w = ss and tr.call("reduction.third_step", case, third_step, ss.v1, ss.v2, zi[0], cs, k.ties)
            if w is not None:
                tr.call("reduction.residual_interval", case, residual_interval, k.xf, zi[0], ss.v1, w, cs)
        if out is not None:
            todo.append(lambda k=k, out=out: ck.reduce_failures(
                k.x, k.n, wl.FORMATS[k.fmt].p, red.tables[k.const][k.fmt], red.c_intervals[k.const],
                wl.reduction_values(out), k.expect_z,
            ))
    return todo


def traced_only(tr, tally, rnd, camp, camp_in, red, red_in) -> dict:
    """Harness, CLI, constant and kernel spans; returns case counts."""
    counts = {}
    recs = {}
    for jobs in (1, 2):
        cfg = CheckConfig(
            theorem="thm6", mode="randomized", constant="pi", fmt="double",
            n_values=wl.THM6_N, trials=THM6_TRIALS, seed=camp_in.thm6_seeds["pi"], jobs=jobs,
        )
        res = tr.scaled_call(f"theorems.run_check.thm6.jobs{jobs}", "thm6", run_check, cfg)
        if res is not None:
            recs[jobs] = res.to_record()
            counts["thm6"] = res.cases
    if len(recs) == 2:
        tally.check(ck.campaign_failures(recs[2], THM6_TRIALS * len(wl.THM6_N), len(wl.THM6_N), other=recs[1]))
    res = tr.scaled_call("theorems.run_check.eft", "eft", run_check, CheckConfig(theorem="eft", trials=EFT_TRIALS, seed=camp_in.eft_seed))
    if res is not None:
        counts["eft"] = res.cases
        tally.check(ck.campaign_failures(res.to_record(), EFT_TRIALS, 1))
    cfg = CheckConfig(
        theorem="correct3", p=wl.SWEEP_P, r_step=wl.R_STEP, n_values=wl.SWEEP_N, window=wl.SWEEP_WINDOW,
    )
    res = tr.scaled_call("theorems.run_check.correct3", "sweep", run_check, cfg)
    if res is not None:
        counts["sweep"] = res.cases
        tally.check([] if res.passed else ["correct3: traced sweep reported failures"])

    for i, (k, text) in enumerate(red_in[1]):
        case = f"cli:{rnd}:{i}"
        argv = [
            "reduce", f"--x={ck.to_text(k.x)}", "--const", k.const, "--format", k.fmt,
            "--N", str(k.n), "--ties", k.ties, "--json",
        ]
        fmt = wl.FORMATS[k.fmt]
        with tr.group("case.cli", case):
            tr.call("cli.main.reduce", case, wl.run_cli, argv)
            cs = tr.call("constgen.gen_constants", case, gen_constants, wl.CONSTANTS[k.const], fmt, n=k.n)
            if cs is not None:
                tr.call("reduction.reduce", case, reduce, k.xf, cs, ties=k.ties)
    with tr.group("case.constants", "constants"):
        tr.call("cli.main.constants", "constants", wl.run_cli, ["constants", "--all", "--audit", "--json"])
        for c, const in wl.CONSTANTS.items():
            for f, fmt in wl.FORMATS.items():
                case = f"constants:{rnd}:{c}/{f}"
                cs = tr.call("constgen.gen_constants", case, gen_constants, const, fmt)
                if cs is not None:
                    tr.call("constgen.audit", case, audit, cs)
                tr.call("realnum.safe_round", case, safe_round, const.enclosure(3 * fmt.p).recip(), fmt)
    for c, const in wl.CONSTANTS.items():
        for f in ("double", "quad"):
            tr.call(f"realnum.{c}_enclosure_{f}", f, const.enclosure, 6 * wl.FORMATS[f].p)
    decimals = [
        (Fraction(wl.decimal_text(k.x)), wl.FORMATS[k.fmt], k.ties) for k in red_in[0][::REDUCE_EVERY]
    ]
    tr.batch(
        "realnum.round_rational", "reduce", lambda v, fmt, t: round_rational(v.numerator, v.denominator, fmt, ties=t), decimals
    )

    # kernel ops on campaign operands (doubles)
    pairs = [(af, bf) for _, _, af, bf in camp_in.pairs]
    xs = [(xf, camp.sets[c, "double"].r, sigma_for(DOUBLE, n)) for c, n, _, xf in camp_in.xs]
    fields = [(f.sign, f.m, f.e, DOUBLE) for f, _ in pairs]
    exact = [(a * b, DOUBLE) for a, b, _, _ in camp_in.pairs]
    ordered = [(a, b) if abs(ck.val(a)) >= abs(ck.val(b)) else (b, a) for a, b in pairs]
    tr.batch("softfp.fpn", "kernel", Fpn, fields)
    tr.batch("softfp.add", "kernel", add, pairs)
    tr.batch("softfp.mul", "kernel", mul, pairs)
    tr.batch("softfp.fma", "kernel", fma, xs)
    tr.batch("softfp.round_nearest", "kernel", round_nearest, exact)
    tr.batch("softfp.fast2sum", "kernel", fast2sum, ordered)
    tr.batch("softfp.fast2mult", "kernel", fast2mult, pairs)
    return counts


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def _per_call(spans) -> dict[str, list[float]]:
    out = defaultdict(list)
    for _, name, t0, t1, _, _, calls, _ in spans:
        out[name].append((t1 - t0) / calls)
    return out


def _scaled(spans) -> dict[str, list[float]]:
    """Durations of the speed-bracketed spans, normalised (ns)."""
    out = defaultdict(list)
    for _, name, t0, t1, _, _, _, s in spans:
        if s is not None:
            out[name].append((t1 - t0) * s)
    return out


def _by_case(spans, names) -> dict[str, dict[str, float]]:
    out = defaultdict(lambda: defaultdict(float))
    for _, name, t0, t1, _, case, _, _ in spans:
        if name in names:
            out[case][name] += t1 - t0
    return out


def layer_metrics(spans, counts: dict, ops_per_case: float) -> dict:
    d = _per_call(spans)
    med = {k: statistics.median(v) for k, v in d.items()}
    norm = {k: statistics.median(v) for k, v in _scaled(spans).items()}
    stages = ("reduction.extract_z", "reduction.first_step", "reduction.second_step",
              "reduction.third_step", "reduction.residual_interval")
    reduce_cases = _by_case([s for s in spans if s[5].startswith("reduce:")], ("reduction.reduce",) + stages)
    reduce_self = [c["reduction.reduce"] - sum(c[s] for s in stages) for c in reduce_cases.values()]
    cli_cases = _by_case([s for s in spans if s[5].startswith("cli:")],
                         ("cli.main.reduce", "constgen.gen_constants", "reduction.reduce"))
    cli_self = [c["cli.main.reduce"] - c["constgen.gen_constants"] - c["reduction.reduce"] for c in cli_cases.values()]
    # harness time per case minus the untraced stage replay per case of
    # the same constant (the harness runs pi), both normalised medians
    # over rounds (counts are per round)
    thm6_self = (norm["theorems.run_check.thm6.jobs1"] / counts["thm6"]
                 - norm["untraced.thm6.pi"] / counts["thm6_pi_replayed"])
    sweep_self = (norm["theorems.run_check.correct3"] / counts["sweep"]
                  - norm["untraced.sweep"] / counts["sweep_replayed"])
    sections = ("thm6.pi", "thm6.ln2", "reduce", "sweep")
    traced = sum(norm[f"traced.{w}"] for w in sections)
    untraced = sum(norm[f"untraced.{w}"] for w in sections)
    us = 1e-3
    m = {
        "softfp.fpn_ns": (med["softfp.fpn"], "ns"),
        "softfp.add_ns": (med["softfp.add"], "ns"),
        "softfp.mul_ns": (med["softfp.mul"], "ns"),
        "softfp.fma_ns": (med["softfp.fma"], "ns"),
        "softfp.round_nearest_ns": (med["softfp.round_nearest"], "ns"),
        "softfp.fast2sum_ns": (med["softfp.fast2sum"], "ns"),
        "softfp.fast2mult_ns": (med["softfp.fast2mult"], "ns"),
        "softfp.rounded_ops_per_case": (ops_per_case, "count"),
        "realnum.pi_enclosure_double_us": (us * med["realnum.pi_enclosure_double"], "us"),
        "realnum.pi_enclosure_quad_us": (us * med["realnum.pi_enclosure_quad"], "us"),
        "realnum.ln2_enclosure_double_us": (us * med["realnum.ln2_enclosure_double"], "us"),
        "realnum.ln2_enclosure_quad_us": (us * med["realnum.ln2_enclosure_quad"], "us"),
        "realnum.safe_round_us": (us * med["realnum.safe_round"], "us"),
        "realnum.round_rational_ns": (med["realnum.round_rational"], "ns"),
        "constgen.gen_constants_us": (us * med["constgen.gen_constants"], "us"),
        "constgen.audit_us": (us * med["constgen.audit"], "us"),
        "constgen.synthetic_set_us": (us * med["constgen.synthetic_set"], "us"),
        "reduction.extract_z_us": (us * med["reduction.extract_z"], "us"),
        "reduction.first_step_us": (us * med["reduction.first_step"], "us"),
        "reduction.second_step_us": (us * med["reduction.second_step"], "us"),
        "reduction.third_step_us": (us * med["reduction.third_step"], "us"),
        "reduction.residual_interval_us": (us * med["reduction.residual_interval"], "us"),
        "reduction.reduce_self_us": (us * statistics.median(reduce_self), "us"),
        "theorems.thm6_self_us_per_case": (us * thm6_self, "us"),
        "theorems.sweep_self_us_per_case": (us * sweep_self, "us"),
        "theorems.eft_us_per_case": (us * norm["theorems.run_check.eft"] / counts["eft"], "us"),
        "theorems.jobs2_speedup": (
            statistics.median(d["theorems.run_check.thm6.jobs1"]) / statistics.median(d["theorems.run_check.thm6.jobs2"]),
            "ratio",
        ),
        "cli.reduce_self_us": (us * statistics.median(cli_self), "us"),
        "trace.overhead_pct": (100 * (traced / untraced - 1), "%"),
    }
    return m


def run_traced(seed, seconds, tally, oracle):
    camp = wl.Campaign(seed, oracle, tally)
    red = wl.Reduce(seed, oracle, tally)
    sweep = wl.Sweep(seed, oracle, tally)
    for w in (camp, red, sweep):
        w.prepare()
    tracer = Tracer(tally)
    ops = cases = 0
    start = time.perf_counter()
    i = 0
    while True:
        t_round = time.perf_counter()
        inputs = (camp, camp.inputs(i, TRACE_CAMPAIGN_SAMPLE), red, red.inputs(i), sweep, sweep.inputs(i))
        tracer.detail = False
        replay_stages(tracer, i, *inputs)
        tracer.detail = True
        round_ops, todo = replay_stages(tracer, i, *inputs)
        ops += round_ops
        cases += len(inputs[1].xs)
        for check in todo:
            tally.check(check())
        counts = traced_only(tracer, tally, i, camp, inputs[1], red, inputs[3])
        i += 1
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            break
    counts.update(
        thm6_pi_replayed=sum(1 for c, _, _, _ in inputs[1].xs if c == "pi"), sweep_replayed=len(inputs[5])
    )
    metrics = layer_metrics(tracer.spans, counts, ops / cases)
    return metrics, tracer.spans
