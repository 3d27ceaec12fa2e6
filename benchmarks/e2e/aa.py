#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself?

Runs the end-to-end pass 2 x K times on this checkout, alternating the
labels A and B, and prints, per metric x workload, both medians, their
relative difference and (q3 - q1) / median of each side.  Fails unless

* every difference is at most half the metric's bound,
* every inter-quartile spread is at most the bound, and
* every count metric is bit-identical across all 2K runs.

A timing that cannot pass gets more rounds or longer blocks, or is
demoted to the ungated per-layer list; bounds are not widened to fit.

    python benchmarks/e2e/aa.py [-k 5] [--seed 1] [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
#: Metrics that are counts of bytes, not timings: they must repeat.
EXACT = ("disk_bytes_per_object",)


def spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-k", type=int, default=5, help="runs per side")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="one workload only")
    args = parser.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        declared = json.load(f)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}

    sides: Dict[str, List[dict]] = {"A": [], "B": []}
    with tempfile.TemporaryDirectory(prefix="repro-aa-") as scratch:
        for i in range(2 * args.k):
            side = "AB"[i % 2]
            out = os.path.join(scratch, f"{side}{i}.json")
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--seed", str(args.seed), "--out", out]
            if args.workload:
                command += ["--workload", args.workload]
            done = subprocess.run(command, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"run {i} ({side}) failed with exit code "
                      f"{done.returncode}")
                return 1
            with open(out) as f:
                sides[side].append(json.load(f)["workloads"])
            print(f"run {i + 1}/{2 * args.k} ({side}) done", flush=True)

    failures = []
    print(f"{'workload':<9} {'metric':<22} {'median A':>12} {'median B':>12} "
          f"{'B vs A':>8} {'iqr A':>7} {'iqr B':>7} {'bound':>6}")
    for workload in sides["A"][0]:
        for metric, bound in bounds.items():
            a, b = ([run[workload]["metrics"][metric]["value"]
                     for run in sides[side]] for side in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if better[metric] == "higher":
                worse = -worse
            iqr_a, iqr_b = spread(a), spread(b)
            verdict = []
            if metric in EXACT and len(set(a + b)) != 1:
                verdict.append("count differs between runs")
            if abs(worse) > bound / 2:
                verdict.append("medians differ by more than half the bound")
            if max(iqr_a, iqr_b) > bound:
                verdict.append("spread exceeds the bound")
            print(f"{workload:<9} {metric:<22} {med_a:>12.5g} "
                  f"{med_b:>12.5g} {100 * worse:>+7.2f}% "
                  f"{100 * iqr_a:>6.2f}% {100 * iqr_b:>6.2f}% "
                  f"{100 * bound:>5.1f}%  {'; '.join(verdict)}")
            failures += [f"{workload} {metric}: {v}" for v in verdict]
    if failures:
        print(f"A/A FAILED ({len(failures)}):")
        for failure in failures:
            print("  " + failure)
        return 1
    print("A/A passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
