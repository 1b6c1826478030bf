"""Compare the output artifacts of two gibem source trees byte for byte.

    python scripts/compare_artifacts.py BASE_SRC NEW_SRC [--seed N]

For each source directory, one subprocess with that directory on
PYTHONPATH writes the seeded model file of each benchmark workload and
runs ``gibem.cli.main`` on it with the workload's own ``cli_args`` (both
from ``perfbench/workloads.py``, imported read-only): the VTK surface, the
traces and the coefficient and report files, at full benchmark size
(161 x 161 VTK points per patch and 32 traces of 3001 samples on
``trimmed-post``). Each subprocess works in its own directory with
relative paths, so the model path recorded in ``report.json`` is the
same for both trees. Every file of the two trees is compared byte for
byte, model files included; in ``report.json`` only the value of
``runtime_seconds`` is ignored. The script prints one line per file and
exits with status 1 when any file differs or exists in one tree only.
When a ``coefficients.csv`` differs, the next line gives the largest
change of a displacement coefficient relative to the largest BASE one.
"""

import argparse
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Runs in the subprocess, in its work directory: argv is (seed, perfbench
# directory). Each workload writes to a directory named after it.
CHILD = """
import sys
seed, perfbench = int(sys.argv[1]), sys.argv[2]
sys.path.insert(0, perfbench)
from workloads import WORKLOADS, write_workload
import gibem.cli

for name, workload in WORKLOADS.items():
    path, model = write_workload(workload, seed, ".")
    code = gibem.cli.main(workload.cli_args(model, path, name))
    if code != 0:
        sys.exit(f"{name}: gibem solve exited with status {code}")
"""

RUNTIME = re.compile(rb'"runtime_seconds": [^,\n]*')


def run_cli(src, seed, work):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    work.mkdir()
    subprocess.run(
        [sys.executable, "-c", CHILD, str(seed), str(PERFBENCH)],
        env=env, cwd=work, check=True, stdout=subprocess.DEVNULL,
    )
    return {path.relative_to(work): path.read_bytes()
            for path in sorted(work.rglob("*")) if path.is_file()}


def coefficient_change(base, new):
    """Largest |NEW - BASE| over the ux, uy, uz columns of two
    coefficients.csv files, relative to the largest |BASE| there."""
    a, b = (np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1,
                       usecols=(4, 5, 6)) for data in (base, new))
    if a.shape != b.shape:
        return f"node tables differ: {a.shape} and {b.shape}"
    change = np.abs(b - a).max() / np.abs(a).max()
    return f"max coefficient change {change:.2e} relative to BASE"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        base = run_cli(args.base_src, args.seed, Path(tmp) / "base")
        new = run_cli(args.new_src, args.seed, Path(tmp) / "new")

    all_equal = True
    print(f"{'file':<46}{'bytes':>12}  identical")
    for name in sorted(base.keys() | new.keys()):
        a, b = base.get(name), new.get(name)
        if a is None or b is None:
            equal, size = False, "only in " + ("NEW" if a is None else "BASE")
        else:
            if name.name == "report.json":
                a, b = RUNTIME.sub(b"", a), RUNTIME.sub(b"", b)
            equal, size = a == b, str(len(a))
        all_equal &= equal
        print(f"{str(name):<46}{size:>12}  {equal}")
        if name.name == "coefficients.csv" and None not in (a, b) \
                and not equal:
            print("  " + coefficient_change(a, b))
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
