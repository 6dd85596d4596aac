"""Steadiness check: run each workload once per seed and report, for every
end-to-end metric, the median and the spread (distance between the first
and third quartiles as a share of the median) against its bound.

    python3 bench/steady.py

Reads the command, run length, workloads and bounds from BENCHMARK.json
and runs every workload with seeds 1..10.  Exits 1 when a spread is above
a third of its bound, when the share of failed operations differs between
runs, or when a check failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in SEEDS:
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        ok = ok and len(shares) == 1
        print(f"{name}: failed share {'0' if shares == {0} else sorted(shares)}")
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            s = spread(v)
            steady = s < metric["bound"] / 3
            ok = ok and steady
            print(
                f"  {metric['name']:<16} median {statistics.median(v):<12.6g} {metric['unit']:<8}"
                f" spread {100 * s:5.2f}%  bound {100 * metric['bound']:.0f}%"
                f"{'' if steady else '  <-- above a third of the bound'}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
