"""gibem benchmark: one run of one workload.

    python3 perfbench/run.py --workload cube-far --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. It writes the seeded model file of
the workload, times ``import gibem`` in fresh processes at the reference
pace of ``pace.py`` (``setup_s``), then
starts one child process (``child.py``) with BLAS and OpenMP pinned to one
thread, which calls ``gibem solve`` until the seconds are used and checks
every call's artifacts. The machine is printed on the line before the
result; the last line is the JSON result. Scratch files go to
``.perfbench-work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# The whole run, set-up included, must end well inside 180 s.
DEADLINE_S = 170.0
SETUP_SAMPLES = 7
PACE_SAMPLES = 25

# Times the import, then the pace right after it (the probe needs numpy,
# which the import brings in).
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gibem.cli; "
    "t = time.perf_counter() - t; import statistics, sys; "
    f"sys.path.insert(0, {str(HERE)!r}); import pace; "
    f"p = statistics.median(pace.probe() for _ in range({PACE_SAMPLES})); "
    "print(gibem.__file__); print(t * pace.REFERENCE_PROBE_S / p)"
)


def pinned_env():
    env = dict(os.environ)
    env.pop("GIBEM_LOG_LEVEL", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    return env


def setup_seconds(env):
    """Median time to import gibem in a fresh interpreter, at the
    reference pace."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        location, seconds = done.stdout.split()
        if not Path(location).is_relative_to(SRC):
            raise RuntimeError(f"imported gibem from {location}, not {SRC}")
        samples.append(float(seconds))
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "gibem" / "__init__.py").is_file():
        print(f"perfbench: no gibem sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, write_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    model_path, _ = write_workload(WORKLOADS[args.workload], args.seed, work)

    env = pinned_env()
    setup = setup_seconds(env) if not args.trace else None
    remaining = DEADLINE_S - (time.perf_counter() - started)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--model", str(model_path),
        "--work", str(work), "--seed", str(args.seed),
        "--seconds", str(min(args.seconds, remaining - 30.0)),
        "--trace", str(args.trace),
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: child exited with {done.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    print("machine: " + json.dumps(result.pop("machine")))
    print("walls: " + json.dumps(result.pop("walls")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
