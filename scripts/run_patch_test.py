"""Patch test: uniform uniaxial stress on the unit cube.

The analytic solution is the linear field u = (x - c) sigma / E, which lies
inside every field space, so the numerical error measures pure solver
noise.  Prints the relative error at the collocation points and the wall
time.  Use --trimmed to run the variant whose top (z = 1) face is split into
two trimmed patches.
"""

import argparse
import time

import numpy as np

from gibem.model import build_cube_model, build_trimmed_cube_model
from gibem.solve import remove_rigid_motion, solve_model


def analytic_uniaxial(points, youngs_modulus=1000.0, stress=1.0):
    disp = np.zeros_like(points)
    disp[:, 2] = points[:, 2] * stress / youngs_modulus
    return disp


def patch_test_error(model):
    solution = solve_model(model)
    exact = analytic_uniaxial(solution.colloc.positions)
    diff = solution.coefficients.reshape(-1, 3) - exact
    # the solver normalizes rigid motion its own way; compare modulo that
    diff = remove_rigid_motion(
        solution.colloc, diff.ravel(), model.symmetry_planes
    ).reshape(-1, 3)
    scale = np.abs(exact).max()
    return np.abs(diff).max() / scale, solution


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=2)
    parser.add_argument("--trimmed", action="store_true")
    args = parser.parse_args()

    build = build_trimmed_cube_model if args.trimmed else build_cube_model
    model = build(order=args.order)
    started = time.perf_counter()
    error, solution = patch_test_error(model)
    elapsed = time.perf_counter() - started

    kind = "trimmed cube" if args.trimmed else "cube"
    print(f"{kind}, field order {args.order}")
    print(f"  dof:       {solution.dof_count}")
    print(f"  residual:  {solution.residual:.3e}")
    print(f"  rel error: {error:.3e}")
    print(f"  wall time: {elapsed:.2f} s")


if __name__ == "__main__":
    main()
