#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's spread.

Usage, from the repository root:

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds 20] [--trace 0]

For every metric it prints the median of the per-run values, the first and
third quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
the figure a metric's bound in BENCHMARK.json is compared against. It also
prints the share of failed calls and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seeds)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH.parent / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
