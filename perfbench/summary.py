"""Run the benchmark over several seeds and print every metric.

    python3 perfbench/summary.py --seeds 1-10 --seconds 32
    python3 perfbench/summary.py --workloads octant-trim --seeds 1-5 --trace 1

Runs ``run.py`` once per workload and seed, one after another, from the
checkout root. For each workload and metric it prints the median, the
quartiles, the spread (quartile distance over the median, as the
benchmark's bounds are checked) and the number of runs, followed by the
fail ratio (failed calls over attempted calls). All results are saved to
``.perfbench-work/summary.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=200,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        label, _, text = line.partition(": ")
        if label in ("machine", "walls"):
            result[label] = json.loads(text)
    return result


def describe(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}

    results = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in args.seeds]
        results[workload] = runs
        print(f"{workload}  ({len(runs)} runs, seeds {args.seeds[0]}.."
              f"{args.seeds[-1]}, {args.seconds} s each)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median, q1, q3, spread = describe(values)
            bound = bounds.get(name)
            limit = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:44s} {median:14.6g} {unit:7s} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.4f} n={len(values)}{limit}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"  {'fail_ratio':44s} {failed / attempted:14.6g} ratio   "
              f"({failed} of {attempted} calls failed, all correct: "
              f"{correct})")
        sys.stdout.flush()
    out = Path(".perfbench-work")
    out.mkdir(exist_ok=True)
    (out / "summary.json").write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
