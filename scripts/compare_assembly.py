"""Compare the assembled arrays of two gibem source trees.

    python scripts/compare_assembly.py BASE_SRC NEW_SRC [--seed N]

For each source directory, one subprocess with that directory on
PYTHONPATH runs ``gibem.assembly._engine`` on five models: the three
benchmark workloads (built by ``perfbench/workloads.py``, imported
read-only), the order-2 cube and the order-2 trimmed cube split at 0.4.
For every model the script prints, per array (the matrix before closure,
``row_sums``, the rhs and ``node_values``), whether the two trees agree
bit for bit and the largest difference relative to the largest BASE
entry. It exits with status 1 when any array differs.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ARRAYS = ("t_blocks", "row_sums", "rhs", "node_values")

# Runs in the subprocess: argv is (output .npz, seed, perfbench directory).
CHILD = """
import sys
import numpy as np
out, seed, perfbench = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path.insert(0, perfbench)
from workloads import WORKLOADS, build_model, draw_stress
from gibem import LoadState, Material, build_cube_model, build_trimmed_cube_model
from gibem.assembly import _engine, collocation_points

models = {name: build_model(w, seed) for name, w in WORKLOADS.items()}
rng = np.random.default_rng(seed)
material = Material(1000.0, float(rng.uniform(0.0, 0.4)))
load = LoadState(draw_stress(rng, diagonal=False))
models["cube-order2"] = build_cube_model(2, material, load)
models["trimmed-cube-order2"] = build_trimmed_cube_model(2, 0.4, material, load)
arrays = {}
for name, model in models.items():
    partial, rhs = _engine(model, collocation_points(model), model.config,
                           model.load)
    arrays[name + "/t_blocks"] = partial.t_blocks
    arrays[name + "/row_sums"] = partial.row_sums
    arrays[name + "/rhs"] = rhs
    arrays[name + "/node_values"] = partial.node_values
np.savez(out, **arrays)
"""


def run_engine(src, seed, out):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-c", CHILD, str(out), str(seed), str(PERFBENCH)],
        env=env, check=True,
    )
    with np.load(out) as data:
        return dict(data)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        base = run_engine(args.base_src, args.seed, Path(tmp) / "base.npz")
        new = run_engine(args.new_src, args.seed, Path(tmp) / "new.npz")

    all_equal = True
    print(f"{'model':<22}{'array':<13}{'array_equal':<13}max rel diff")
    for key in base:
        model, array = key.split("/")
        a, b = base[key], new[key]
        equal = a.shape == b.shape and np.array_equal(a, b)
        all_equal &= equal
        if a.shape != b.shape:
            rel = f"shapes {a.shape} vs {b.shape}"
        else:
            scale = np.abs(a).max()
            rel = f"{np.abs(a - b).max() / scale if scale else 0.0:.3e}"
        print(f"{model:<22}{array:<13}{str(equal):<13}{rel}")
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
