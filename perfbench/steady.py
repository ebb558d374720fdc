"""Steadiness check: run every workload in two sets of seeds, compare with the bounds.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Each run lasts BENCHMARK.json's run_seconds.  For each end-to-end metric it
reports, per workload, the spread of each set (interquartile distance over
the median, as statistics.quantiles(values, n=4) gives the quartiles) and how
far the second set's median moved from the first set's, in the metric's
worse direction.  A spread or a move larger than the bound fails; the exit
code is 1 if any does.  Spreads above a third of the bound are flagged as
marginal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = (100, 1100)  # first seed of each set


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    m1, m2 = statistics.median(first), statistics.median(second)
    return (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)

    e2e = bench["end_to_end"]
    failed = False
    for workload in args.workloads.split(","):
        values = [{m["name"]: [] for m in e2e} for _ in SEED_BASE]
        for s, base in enumerate(SEED_BASE):
            for seed in range(base, base + args.runs):
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True, cwd=ROOT,
                )
                wall = time.monotonic() - t0
                try:
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    print(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-1000:]}")
                    failed = True
                    continue
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect ({result['failed']}/{result['attempted']} failed)")
                    failed = True
                for m in e2e:
                    values[s][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{workload} set {s} seed {seed} ({wall:.1f} s): " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in e2e), flush=True)
        for m in e2e:
            name, bound = m["name"], m["bound"]
            first, second = values[0][name], values[1][name]
            if not first or not second:
                failed = True
                continue
            sp = max(spread(first), spread(second))
            move = worsening(first, second, m["better"])
            bad = sp > bound or move > bound
            line = f"  {workload:<18s} {name:<14s} median={statistics.median(first + second):.4g} {m['unit']} " \
                   f"spread={spread(first):.3f},{spread(second):.3f} (bound {bound}) set-2 worse by {move:+.3f}"
            if bad:
                line += "  FAIL"
            elif sp > bound / 3:
                line += "  marginal"
            failed = failed or bad
            print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
