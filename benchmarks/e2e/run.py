#!/usr/bin/env python3
"""The benchmark's one command.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--layers] [--smoke]
        [--out FILE] [--workdir DIR]

Runs each workload in a fresh subprocess (``workload.py``), prints every
metric by name with its unit, verifies the answers, and exits non-zero
on any correctness failure.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (layer
micro-benchmarks plus the traced replay) with ``--trace 1``.

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
WORKLOADS = ("embedded", "churn", "served", "sharded")
#: Two rounds of blocks per measured second: 16 rounds at the declared
#: ``run_seconds`` of 8.
ROUNDS_PER_SECOND = 2
SMOKE_SCALE = 20
SMOKE_ROUNDS = 2
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------

def host_load() -> Dict[str, object]:
    out: Dict[str, object] = {"loadavg": list(os.getloadavg())}
    try:
        with open("/proc/pressure/cpu") as f:
            some = f.readline()
        out["cpu_pressure_some_avg10"] = float(
            re.search(r"avg10=([0-9.]+)", some).group(1))
    except (OSError, AttributeError):
        out["cpu_pressure_some_avg10"] = None
    return out


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> Dict[str, object]:
    cpus = sorted(os.sched_getaffinity(0))
    return {
        "cpu_count": os.cpu_count(), "allowed_cpus": cpus,
        # Each workload process pins itself and its children here.
        "pinned": True, "pinned_cpu": cpus[0],
        "python": platform.python_version(),
        "git_commit": git_commit(), "hash_seed": "0",
        "start_method": "fork", "seed": seed,
        "load_at_start": host_load(),
    }


def finish_environment(env: Dict[str, object]) -> None:
    env["load_at_end"] = end = host_load()
    start = env["load_at_start"]
    cpus = len(env["allowed_cpus"])
    # Informational only: samples are never dropped because of it.
    env["noisy_host"] = any(
        load["loadavg"][0] > 0.5 * cpus + 1.0
        or (load["cpu_pressure_some_avg10"] or 0.0) > 10.0
        for load in (start, end))


# ----------------------------------------------------------------------
# One workload in its own process
# ----------------------------------------------------------------------

def run_workload(name: str, mode: str, seed: int, rounds: int, scale: int,
                 scratch: str, expect_wrong: bool = False,
                 keep_trace: Optional[str] = None
                 ) -> Optional[Dict[str, object]]:
    """Run one workload in a directory of its own under ``scratch``.
    Returns the child's result, or ``None`` if it died without one;
    the trace it wrote, if any, is copied to ``keep_trace``."""
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", name, "--mode", mode, "--seed", str(seed),
               "--rounds", str(rounds), "--scale", str(scale),
               "--workdir", workdir]
    if expect_wrong:
        command.append("--expect-wrong")
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED="0"))
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            return None
        result = json.loads(lines[-1])
        result["exit_code"] = done.returncode
        trace = result.get("detail", {}).pop("trace_file", None)
        if trace and keep_trace:
            shutil.copyfile(trace, keep_trace)
            result["detail"]["trace_file"] = keep_trace
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_result(result: Dict[str, object]) -> None:
    detail = result.get("detail", {})
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}  wall={result['wall_s']:.1f}s")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if "per_op_us" in detail:
        print("  -- not gated, not normalised: blocks' median and "
              "fastest-quarter mean; per-op median and highest "
              "percentile with 10 samples beyond it")
        for phase, per_op in detail["per_op_us"].items():
            raw = detail["raw_block_us"][phase]
            print(f"  {phase:<6} {len(raw['blocks'])} blocks: median "
                  f"{raw['median']:.3f} us/op, fastest quarter "
                  f"{raw['fastest_quarter']:.3f} us/op; per op: median "
                  f"{per_op['median']:.3f} us, p{per_op['p']:g} "
                  f"{per_op['value']:.3f} us, n={per_op['samples']}")
        for what in ("setup_s", "recover_s"):
            print(f"  {what:<10} raw seconds: " + ", ".join(
                f"{s:.3f}" for s in detail[what]["raw"]))
    for line in detail.get("ledger", ()):
        print("  " + line)
    for check in detail.get("checks", ()):
        if not check["ok"]:
            print(f"  FAILED {check['check']}: got {check.get('got')} "
                  f"expected {check.get('expected')}")


# ----------------------------------------------------------------------
# --smoke: the declared benchmark against what is emitted
# ----------------------------------------------------------------------

def check_declaration(results: Dict[str, Dict[str, object]],
                      mode: str) -> List[str]:
    """``BENCHMARK.json`` against the metrics ``mode`` emitted; returns
    the problems found."""
    kind = "end_to_end" if mode == "e2e" else "per_layer"
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads declared {names}, run {WORKLOADS}")
    if len(declared["end_to_end"]) > 16 or len(declared["per_layer"]) > 128:
        problems.append("too many metrics declared")
    for metric in declared["end_to_end"]:
        if not 0 < metric.get("bound", 0) <= 0.25:
            problems.append(f"{metric['name']}: bound missing or > 0.25")
    for metric in declared["end_to_end"] + declared["per_layer"]:
        if not NAME.match(metric["name"]):
            problems.append(f"bad metric name {metric['name']!r}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"{metric['name']}: better={metric['better']}")
    expected = {m["name"]: m["unit"] for m in declared[kind]
                if mode != "layers" or not m["name"].startswith("trace.")}
    for workload, result in results.items():
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != expected:
            odd = sorted(set(emitted.items()) ^ set(expected.items()))
            problems.append(f"{workload}: emitted and declared {kind} "
                            f"metrics differ: {odd}")
        zero = [n for n, m in result["metrics"].items()
                if kind == "end_to_end" and not m["value"] > 0]
        if zero:
            problems.append(f"{workload}: not positive: {zero}")
    return problems


# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8,
                        help="measured seconds per workload: two rounds "
                             "of blocks per second (default 8)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer micro-benchmarks and the "
                             "traced replay instead of the gated pass")
    parser.add_argument("--layers", action="store_true",
                        help="per-layer micro-benchmarks only")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20, 2 rounds; also checks "
                             "BENCHMARK.json against the output and that "
                             "the gate trips on a wrong expectation")
    parser.add_argument("--out",
                        help="write the full result here (JSON); with "
                             "--trace 1 also OUT.<workload>.trace.jsonl")
    parser.add_argument("--workdir",
                        help="parent of the scratch directory "
                             "(default: the system temp dir)")
    parser.add_argument("--expect-wrong", action="store_true",
                        help="corrupt one expected answer; the run must "
                             "then fail its gate")
    args = parser.parse_args(argv)

    mode = "layers" if args.layers else ("trace" if args.trace else "e2e")
    rounds = (SMOKE_ROUNDS if args.smoke
              else max(4, ROUNDS_PER_SECOND * args.seconds))
    scale = SMOKE_SCALE if args.smoke else 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    env = environment(args.seed)
    scratch = tempfile.mkdtemp(prefix="repro-e2e-", dir=args.workdir)
    results: Dict[str, Dict[str, object]] = {}
    problems: List[str] = []
    try:
        for name in names:
            result = run_workload(
                name, mode, args.seed, rounds, scale, scratch,
                args.expect_wrong,
                keep_trace=(f"{args.out}.{name}.trace.jsonl"
                            if args.out else None))
            if result is None:
                print(f"{name}: the workload process died without a "
                      "result", file=sys.stderr)
                return 2
            results[name] = result
            print_result(result)
        if args.smoke:
            problems = check_declaration(results, mode)
            tripped = run_workload(names[0], "e2e", args.seed, rounds,
                                   scale, scratch, expect_wrong=True)
            if tripped is None or tripped["correct"] \
                    or tripped["exit_code"] == 0:
                problems.append("the gate did not trip on a deliberately "
                                "wrong expectation")
            for problem in problems:
                print(f"SMOKE FAILED: {problem}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    finish_environment(env)
    env["wall_s"] = {name: r["wall_s"] for name, r in results.items()}
    print("environment: " + json.dumps(env))

    correct = (all(r["correct"] for r in results.values())
               and not problems)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"environment": env, "mode": mode, "rounds": rounds,
                       "workloads": results, "problems": problems}, f,
                      indent=1)
    metrics = (results[names[0]]["metrics"] if len(names) == 1 else
               {name: r["metrics"] for name, r in results.items()})
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
