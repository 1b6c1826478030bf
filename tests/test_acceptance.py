"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Each test computes everything first and funnels the result
through ``report`` so the line prints even when the run is red.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibem.assembly import assemble, collocation_points
from gibem.errors import GibemError
from gibem.geometry import (
    NurbsPatch,
    TrimmedPatch,
    TrimmingCurve,
    build_quarter_cylinder,
    straight_trim_pair,
)
from gibem.kernels import Material, kelvin_T_many, kelvin_U_many
from gibem.model import (
    BoundaryModel,
    build_cube_model,
    build_trimmed_cube_model,
)
from gibem.quadrature import PAIR, gauss_points, gauss_rule, quadtree_refine
from gibem.solve import elevate_model_order, remove_rigid_motion, solve_model
from gibem.splines import BasisSpace, bspline_basis_many, unit_interval_space

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {number:>2}: {label}{suffix}")
    assert passed, f"criterion {number} ({label}) failed: {detail}"


def flat_unit_square() -> NurbsPatch:
    line = unit_interval_space(1)
    control = np.zeros((2, 2, 3))
    control[:, :, 0] = [[0.0, 0.0], [1.0, 1.0]]
    control[:, :, 1] = [[0.0, 1.0], [0.0, 1.0]]
    return NurbsPatch(line, line, control, np.ones((2, 2)))


def areas_at(patch, params):
    return patch.frames_at(params).areas


def patch_test_error(model):
    """Relative deviation from the uniform-strain solution, rigid part
    aligned out first."""
    solution = solve_model(model)
    exact = np.zeros((len(solution.colloc), 3))
    exact[:, 2] = solution.colloc.positions[:, 2] / 1000.0
    diff = solution.coefficients.reshape(-1, 3) - exact
    diff = remove_rigid_motion(
        solution.colloc, diff.ravel(), model.symmetry_planes
    ).reshape(-1, 3)
    return float(np.abs(diff).max() / np.abs(exact).max()), solution


def test_criterion_1_spline_basics():
    rng = np.random.default_rng(20240811)
    tol = 1e-12
    worst = 0.0
    started = time.perf_counter()
    for _ in range(1000):
        degree = int(rng.integers(1, 5))
        n_interior = int(rng.integers(0, 6))
        interior = np.sort(rng.uniform(0.05, 0.95, size=n_interior))
        lo = float(rng.uniform(-2.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 3.0))
        kv = np.concatenate([
            np.full(degree + 1, lo),
            lo + (hi - lo) * interior,
            np.full(degree + 1, hi),
        ])
        space = BasisSpace(kv, degree)
        u = float(rng.uniform(lo, hi))
        row = bspline_basis_many(space, [u])[0]
        worst = max(worst, abs(row.sum() - 1.0), float(-row.min()))
        knots = space.knots
        support_ok = all(
            knots[i] - tol <= u <= knots[i + degree + 1] + tol
            for i in np.nonzero(row > tol)[0]
        )
        if not support_ok:
            worst = np.inf
            break
    elapsed = time.perf_counter() - started
    report(
        1,
        "spline partition of unity / positivity / support, 1000 cases",
        worst <= tol and elapsed < 5.0,
        f"worst {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_quarter_cylinder_fixture():
    rounded = build_quarter_cylinder()
    exact = build_quarter_cylinder(exact_arc=True)
    weights_ok = np.array_equal(
        rounded.weights.T, [[1.0, 0.7, 1.0], [1.0, 0.7, 1.0]]
    )
    knots_ok = np.array_equal(
        rounded.space_u.knots, [0, 0, 0, 1, 1, 1]
    ) and np.array_equal(rounded.space_v.knots, [0, 0, 1, 1])

    params = np.array([[0.5, 0.3]])
    radius_exact = float(
        np.hypot(*exact.points_at(params)[0][:2])
    )
    radius_rounded = float(
        np.hypot(*rounded.points_at(params)[0][:2])
    )
    exact_err = abs(radius_exact - 1.0)
    rounded_dev = abs(radius_rounded - 1.0)
    report(
        2,
        "quarter-cylinder weights; exact-arc radius; 0.7 deviation",
        weights_ok and knots_ok and exact_err < 1e-12 and rounded_dev > 1e-6,
        f"exact {exact_err:.1e}, rounded {rounded_dev:.2e}",
    )


def test_criterion_3_trimming_map():
    square = flat_unit_square()

    # slanted straight trims: quadrature area vs the shoelace formula
    line = unit_interval_space(1)
    curve_a = TrimmingCurve(line, np.array([[0.15, 0.0], [0.35, 1.0]]))
    curve_b = TrimmingCurve(line, np.array([[0.80, 0.0], [0.60, 1.0]]))
    trapezoid = TrimmedPatch(square, curve_a, curve_b)
    corners = np.array([[0.15, 0.0], [0.80, 0.0], [0.60, 1.0], [0.35, 1.0]])
    x, y = corners[:, 0], corners[:, 1]
    shoelace = 0.5 * abs(
        np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
    )
    params, wts = gauss_points((0, 0, 1, 1), gauss_rule(6))
    area = float(wts @ areas_at(trapezoid, params))
    area_err = abs(area - shoelace)

    # axis-aligned straight trim for good measure
    banded = TrimmedPatch(square, *straight_trim_pair(0.2, 0.7))
    band_area = float(wts @ areas_at(banded, params))
    band_err = abs(band_area - 0.5)

    # identity trim: assembled system unchanged
    plain = build_cube_model()
    wrapped_patches = list(plain.patches)
    wrapped_patches[1] = TrimmedPatch(
        wrapped_patches[1], *straight_trim_pair(0.0, 1.0)
    )
    wrapped = BoundaryModel(
        patches=wrapped_patches,
        field_pairs=list(plain.field_pairs),
        material=plain.material,
        load=plain.load,
        config=plain.config,
    )
    colloc_a = collocation_points(plain)
    colloc_b = collocation_points(wrapped)
    matrix_a, rhs_a = assemble(plain, colloc_a)
    matrix_b, rhs_b = assemble(wrapped, colloc_b)
    identity_err = max(
        float(np.abs(matrix_a - matrix_b).max()),
        float(np.abs(rhs_a - rhs_b).max()),
    )

    # composite Jacobian columns against central differences
    quad = unit_interval_space(2)
    curved_a = TrimmingCurve(
        quad, np.array([[0.20, 0.0], [0.35, 0.5], [0.25, 1.0]])
    )
    curved_b = TrimmingCurve(
        quad, np.array([[0.85, 0.0], [0.70, 0.5], [0.80, 1.0]])
    )
    curvy = TrimmedPatch(square, curved_a, curved_b)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.01, 0.99, size=(100, 2))
    frames = curvy.frames_at(pts)
    h = 1e-6
    fd_worst = 0.0
    for k, column in enumerate((frames.tangents_u, frames.tangents_v)):
        step = np.zeros(2)
        step[k] = h
        fwd = curvy.points_at(pts + step)
        bwd = curvy.points_at(pts - step)
        fd = (fwd - bwd) / (2.0 * h)
        scale = np.linalg.norm(column, axis=1)
        fd_worst = max(
            fd_worst,
            float((np.linalg.norm(fd - column, axis=1) / scale).max()),
        )

    report(
        3,
        "trim areas exact; identity trim inert; Jacobian matches FD",
        area_err < 1e-10 and band_err < 1e-10
        and identity_err < 1e-10 and fd_worst < 1e-5,
        f"area {area_err:.1e}, identity {identity_err:.1e}, "
        f"FD {fd_worst:.1e}",
    )


def test_criterion_4_kernel_identities():
    material = Material(1000.0, 0.25)
    source = np.array([0.31, 0.42, 0.57])
    total = np.zeros((3, 3))
    rule = gauss_rule(10)
    for patch in build_cube_model().patches:
        square = np.zeros(1, PAIR)
        square["bounds"] = 0.0, 0.0, 1.0, 1.0
        pairs = quadtree_refine(
            square,
            source,
            np.zeros((1, 0, 2)),
            patch.points_at,
            threshold=0.5,
            max_depth=8,
        )
        for region in pairs["bounds"]:
            params, wts = gauss_points(region, rule)
            frames = patch.frames_at(params)
            kernel = kelvin_T_many(
                (frames.positions - source).T, frames.normals.T, material
            )
            total += np.einsum(
                "m,ijm->ij", wts * frames.areas, kernel
            )
    closure_err = float(np.abs(total + np.eye(3)).max())

    rng = np.random.default_rng(42)
    u_err = 0.0
    for _ in range(50):
        d = rng.normal(size=3)
        c = float(rng.uniform(1.5, 4.0))
        # U from its columns U e_j
        u_near = np.column_stack([
            kelvin_U_many(((source + d) - source)[:, None], material, e)[:, 0]
            for e in np.eye(3)
        ])
        u_far = np.column_stack([
            kelvin_U_many(((source + c * d) - source)[:, None], material, e)[:, 0]
            for e in np.eye(3)
        ])
        u_err = max(
            u_err,
            float(np.abs(u_far - u_near / c).max() / np.abs(u_near).max()),
            float(np.abs(u_near - u_near.T).max() / np.abs(u_near).max()),
        )
    report(
        4,
        "traction closure over a closed cube; Kelvin U scaling/symmetry",
        closure_err < 1e-4 and u_err < 1e-12,
        f"closure {closure_err:.1e}, U {u_err:.1e}",
    )


def test_criterion_5_rigid_body_rows():
    model = build_cube_model()
    matrix, _ = assemble(model, collocation_points(model))
    n_nodes = len(matrix) // 3
    worst = 0.0
    for axis in range(3):
        mode = np.zeros(len(matrix))
        mode[axis::3] = 1.0
        worst = max(worst, float(np.abs(matrix @ mode).max()))
    report(
        5,
        "closed-cube matrix annihilates constant translations",
        worst < 1e-8,
        f"max row residual {worst:.1e} over {n_nodes} nodes",
    )


def test_criterion_6_patch_test():
    started = time.perf_counter()
    error, solution = patch_test_error(build_cube_model(order=2))
    elapsed = time.perf_counter() - started
    report(
        6,
        "cube patch test at order 2 within 1%",
        error < 0.01 and elapsed < 60.0,
        f"rel error {error:.2e}, {solution.dof_count} dof, {elapsed:.1f} s",
    )


def test_criterion_7_trimmed_patch_test():
    error, solution = patch_test_error(build_trimmed_cube_model(order=2))
    report(
        7,
        "trimmed-cube patch test within 1%",
        error < 0.01,
        f"rel error {error:.2e}, {solution.dof_count} dof",
    )


def test_criterion_8_refinement_behavior():
    base = build_cube_model(order=2)
    errors = []
    dofs = []
    for order in (2, 3, 4):
        model = base if order == 2 else elevate_model_order(base, order)
        error, solution = patch_test_error(model)
        errors.append(error)
        dofs.append(solution.dof_count)
    # closed cube with shared edges: 6(p+1)^2 - 12(p+1) + 8 nodes
    expected_dofs = [3 * (6 * (p + 1) ** 2 - 12 * (p + 1) + 8)
                     for p in (2, 3, 4)]
    # the linear target sits inside every space, so each stage is solver
    # noise; non-increase is asserted up to that noise floor
    slack = 1e-8
    monotone = all(
        errors[k + 1] <= errors[k] + slack for k in range(len(errors) - 1)
    )
    report(
        8,
        "order 2 -> 3 -> 4 never raises the error; DOF arithmetic exact",
        monotone and max(errors) < 1e-6 and dofs == expected_dofs,
        f"errors {', '.join(f'{e:.1e}' for e in errors)}; dofs {dofs}",
    )


def test_criterion_9_geometry_field_decoupling():
    model = build_trimmed_cube_model()
    refined = elevate_model_order(model, 4)
    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    for before, after in zip(model.patches, refined.patches):
        params = rng.uniform(0.0, 1.0, size=(240, 2))
        frames_a = before.frames_at(params)
        frames_b = after.frames_at(params)
        worst = max(
            worst,
            float(np.abs(frames_a.positions - frames_b.positions).max()),
            float(np.abs(frames_a.normals - frames_b.normals).max()),
            float(np.abs(frames_a.areas - frames_b.areas).max()),
        )
        checked += frames_a.positions.size + frames_a.normals.size
        checked += frames_a.areas.size
    grew = len(collocation_points(refined)) > len(collocation_points(model))
    report(
        9,
        "field elevation leaves sampled geometry untouched",
        checked >= 10000 and worst <= 1e-14 and grew,
        f"{checked} quantities, max drift {worst:.1e}",
    )


def test_criterion_10_deterministic_cli_traces(tmp_path):
    model_file = REPO_ROOT / "models" / "cube.json"
    assert model_file.exists(), "shipped example model is missing"
    outs = [tmp_path / "one", tmp_path / "two"]
    for out in outs:
        done = subprocess.run(
            [
                sys.executable, "-m", "gibem", "solve", str(model_file),
                "--out", str(out),
                "--trace", "1:v1:uz:33", "--trace", "0:u0:mag:9",
            ],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
    names = ["trace_1_v1_uz.csv", "trace_0_u0_mag.csv", "coefficients.csv"]
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in names
    )
    report(
        10,
        "two identical solve runs write byte-identical CSV traces",
        same,
        f"{len(names)} files compared",
    )
