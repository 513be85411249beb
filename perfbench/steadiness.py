#!/usr/bin/env python3
"""Steadiness evidence for the benchmark's end-to-end metrics.

Runs each workload several times, each run with another seed, and prints
for every end-to-end metric the median of the runs, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them) and the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  A set of runs is steady when every spread is within
its bound; the benchmark aims for a third of it.

Two sets of runs of the same code agree when no metric's second median is
worse than the first by more than its bound.  Run from the repository root:

    python3 perfbench/steadiness.py run --runs 10 --first-seed 1 --out a.json
    python3 perfbench/steadiness.py run --runs 10 --first-seed 101 --out b.json
    python3 perfbench/steadiness.py compare a.json b.json
    python3 perfbench/steadiness.py show a.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) of the values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(args: argparse.Namespace) -> None:
    config = load_config()
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            cmd = [*config["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(config["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(lines[-1])
            rounds = [line for line in lines if line.startswith("round ")]
            runs.append({"workload": workload, "seed": seed, "result": result,
                         "rounds": rounds})
            timed = {k: round(v["value"], 4)
                     for k, v in result["metrics"].items() if v["unit"] == "s"}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {timed}",
                  flush=True)
            Path(args.out).write_text(json.dumps({"runs": runs}, indent=1))
    show(args.out)


def by_workload(path: str) -> dict:
    table = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        metrics = table.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return table


def show(path: str) -> bool:
    config = load_config()
    steady = True
    for workload, metrics in by_workload(path).items():
        print(f"\n{workload} ({len(next(iter(metrics.values())))} runs)")
        print(f"  {'metric':22} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in config["end_to_end"]:
            med, q1, q3, rel = spread(metrics[m["name"]])
            ok = rel <= m["bound"]
            steady &= ok
            flag = "" if rel <= m["bound"] / 3 else (
                "  above a third of the bound" if ok else "  OUT OF BOUND")
            print(f"  {m['name']:22} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{rel:8.4f} {m['bound']:6.3f}{flag}")
    print("\nsteady" if steady else "\nNOT steady")
    return steady


def compare(first: str, second: str) -> bool:
    config = load_config()
    a, b = by_workload(first), by_workload(second)
    agree = True
    for workload in a:
        print(f"\n{workload}")
        for m in config["end_to_end"]:
            m1 = statistics.median(a[workload][m["name"]])
            m2 = statistics.median(b[workload][m["name"]])
            worse = worsening(m1, m2, m["better"])
            ok = worse <= m["bound"]
            agree &= ok
            print(f"  {m['name']:22} {m1:14.6g} {m2:14.6g} "
                  f"worse by {worse:+8.4f} (bound {m['bound']:.3f})"
                  f"{'' if ok else '  DISAGREE'}")
    print("\nthe sets agree" if agree else "\nthe sets DISAGREE")
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="run a set and print its spreads")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--out", required=True)
    sub.add_parser("show", help="print a saved set").add_argument("path")
    cmp_parser = sub.add_parser("compare", help="compare two saved sets")
    cmp_parser.add_argument("first")
    cmp_parser.add_argument("second")
    args = parser.parse_args()
    if args.mode == "run":
        run_set(args)
        return 0
    if args.mode == "show":
        return 0 if show(args.path) else 1
    return 0 if compare(args.first, args.second) else 1


if __name__ == "__main__":
    sys.exit(main())
