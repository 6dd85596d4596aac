"""argred benchmark: campaign, reduce and sweep workloads.

    python3 bench/run.py                       # all three workloads, run_seconds each
    python3 bench/run.py --workload reduce --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --trace 1             # per-layer spans, all layers once

Prints each metric as `<workload> <name> = <value> <unit>`, the
operations attempted and failed, and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced replay
of every workload, run once whatever --workload names, reports the
per-layer ones (see tracing.py).  --seconds defaults to BENCHMARK.json's
run_seconds.  Results and spans go to bench/results/.  Exits 2 without a
result when argred's sources or the published tables are missing.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from harness import ROOT

WORKLOADS = ("campaign", "reduce", "sweep")
RESULTS = ROOT / "bench" / "results"


def report(name: str, tally, metrics: dict, extra: dict) -> dict:
    """Print one workload's figures and counts; its result record."""
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(
        f"{name} operations: attempted {tally.attempted}, failed {tally.failed}; "
        f"checks: {tally.checks} evaluated, {tally.bad_checks} failed"
    )
    for m in tally.messages:
        print(f"{name}   {m}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }


def run_workload(name: str, seed: int, seconds: float, oracle) -> dict:
    import workloads
    from harness import SetupTimer, Tally

    tally = Tally()
    wl = {"campaign": workloads.Campaign, "reduce": workloads.Reduce, "sweep": workloads.Sweep}[name](
        seed, oracle, tally
    )
    setup = SetupTimer(wl.prepare)
    setup.block()
    wl.check_sets()
    # whole rounds only: stop before a round that would overrun; set-up
    # samples between rounds are not part of any round's timing
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        wl.run_round(i)
        i += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
        if setup.due():
            setup.block()
    setup.block()
    metrics, extra = wl.metrics()
    setup_s, raw_setup_s = setup.seconds()
    metrics["setup_s"] = (setup_s, "s")
    extra["raw_setup_s"] = (raw_setup_s, "s")
    extra["setup_samples"] = (len(setup.times), "count")
    extra["rounds"] = (i, "count")
    return report(name, tally, metrics, extra)


def run_traced(name: str, seed: int, seconds: float, oracle) -> dict:
    """The traced replay, which covers every workload whatever `name` says."""
    import tracing
    from harness import Tally

    tally = Tally()
    metrics, spans = tracing.run_traced(seed, seconds, tally, oracle)
    RESULTS.mkdir(exist_ok=True)
    tracing.write_spans(spans, RESULTS / f"spans-{name}-seed{seed}.jsonl")
    return report("traced", tally, metrics, {})


def main(argv: list[str] | None = None) -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "argred" / "__init__.py").is_file():
        print(f"error: argred sources not found under {src}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "golden" / "tables.json").is_file():
        print("error: the published tables tests/golden/tables.json are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import checks as ck

    oracle = ck.load_oracle(ROOT)
    if args.trace:
        results = {"traced": run_traced(args.workload, args.seed, args.seconds, oracle)}
    else:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {n: run_workload(n, args.seed, args.seconds, oracle) for n in names}

    if len(results) == 1:
        final = dict(*results.values())
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "results": results,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    final.pop("extra", None)
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
