"""Linear solve, rigid-mode handling, field evaluation, order elevation,
and the patch test on flat, curved, trimmed and seam-closed models."""
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import gibem.assembly
from gibem.assembly import assemble, collocation_points
from gibem.errors import (
    ModelError,
    ParameterDomainError,
    SingularMatrixError,
)
from gibem.geometry import NurbsPatch, TrimmedPatch, TrimmingCurve
from gibem.kernels import Material
from gibem.model import (
    BoundaryModel,
    FieldSpacePair,
    LoadState,
    _CUBE_FACES,
    _bilinear_face,
    build_cube_model,
    build_trimmed_cube_model,
)
from gibem.solve import (
    _lu_factor,
    elevate_model_order,
    evaluate_displacement_many,
    pin_rigid_motion,
    remove_rigid_motion,
    rigid_modes,
    solve,
    solve_model,
)
from gibem.splines import BasisSpace, unit_interval_space

UNIAXIAL_SCALE = 1e-3  # z displacement of the unit cube at sigma_z/E = 1/1000


def analytic_uniaxial(positions):
    out = np.zeros_like(positions)
    out[:, 2] = positions[:, 2] / 1000.0
    return out


def patch_test_error(model):
    sol = solve_model(model)
    exact = analytic_uniaxial(sol.colloc.positions).ravel()
    diff = remove_rigid_motion(sol.colloc, sol.coefficients - exact,
                               model.symmetry_planes)
    return np.abs(diff).max() / UNIAXIAL_SCALE, sol


def mirrored_cube_error(keep, planes, stress, order):
    """The unit cube's faces ``keep``, closed by mirror ``planes``, at field
    order ``order``, nu = 0.25, under the uniform ``stress``: the largest
    nodal distance from the exact uniform strain field after rigid motion
    removal, relative to the largest exact displacement, and the solution."""
    load = LoadState(np.array(stress))
    cube = build_cube_model(order, Material(1000.0, 0.25), load)
    model = dataclasses.replace(
        cube, patches=tuple(cube.patches[k] for k in keep),
        field_pairs=tuple(cube.field_pairs[k] for k in keep),
        symmetry_planes=planes)
    sol = solve_model(model)
    sigma = load.stress_matrix()
    strain = (1.25 * sigma - 0.25 * np.trace(sigma) * np.eye(3)) / 1000.0
    exact = sol.colloc.positions @ strain
    diff = remove_rigid_motion(sol.colloc, sol.coefficients - exact.ravel(),
                               planes)
    return np.abs(diff).max() / np.abs(exact).max(), sol


class TestLinearSolve:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        coeffs, residual = solve(np.eye(3), rhs)
        assert_allclose(coeffs, rhs)
        assert residual < 1e-15

    def test_diagonal_two_by_two(self):
        coeffs, _ = solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert_allclose(coeffs, [1.0, 2.0])

    def test_residual_on_random_system(self):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((50, 50)) + 10.0 * np.eye(50)
        rhs = rng.standard_normal(50)
        coeffs, residual = solve(matrix, rhs)
        assert residual < 1e-12
        assert_allclose(matrix @ coeffs, rhs, atol=1e-10)

    def test_singular_matrix_raises_with_pivot(self):
        matrix = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as info:
            solve(matrix, np.ones(2))
        assert info.value.pivot_index == 1

    def test_tiny_nonzero_pivot_raises_with_pivot(self):
        # the second pivot is -4.4e-16, not zero, and still below 1e-14 * 2
        matrix = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-15]])
        with pytest.raises(SingularMatrixError) as info:
            solve(matrix, np.ones(2))
        assert info.value.pivot_index == 1

    def test_non_finite_rejected(self):
        matrix = np.eye(2)
        matrix[0, 1] = np.inf
        with pytest.raises(ModelError):
            solve(matrix, np.ones(2))

    def test_square_required(self):
        with pytest.raises(ModelError):
            solve(np.zeros((3, 4)), np.zeros(3))

    def test_rhs_length_checked(self):
        with pytest.raises(ModelError):
            solve(np.eye(3), np.zeros(4))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_lu_factor_pivots_as_lapack(n, seed):
    matrix = np.random.default_rng(seed).standard_normal((n, n))
    lu, perm = matrix.copy(), np.arange(n)
    _lu_factor(lu, perm, 0, n)
    lower = np.tril(lu, -1) + np.eye(n)
    assert_allclose(lower @ np.triu(lu), matrix[perm], rtol=0.0,
                    atol=1e-14 * n)
    ref, swaps = scipy.linalg.lu_factor(matrix)
    ref_perm = np.arange(n)
    for i, p in enumerate(swaps):
        ref_perm[[i, p]] = ref_perm[[p, i]]
    assert np.array_equal(perm, ref_perm)
    assert_allclose(np.abs(np.diag(lu)), np.abs(np.diag(ref)), rtol=1e-8)


def octant_model(order, split):
    """The trimmed cube's x, y, z = 1 faces with three mirror planes."""
    cube = build_trimmed_cube_model(order, split)
    keep = (1, 2, 3, 5)
    return BoundaryModel(
        tuple(cube.patches[k] for k in keep),
        tuple(cube.field_pairs[k] for k in keep),
        cube.material,
        symmetry_planes=("xy", "xz", "yz"),
    )


class TestRigidModes:
    pts = np.array([[1.0, 2.0, 3.0], [-0.5, 0.25, 2.0]])

    def test_free_body_has_six(self):
        modes = rigid_modes(self.pts)
        assert modes.shape == (6, 6)
        # three unit translations, then the rotations e_a x p
        assert_allclose(modes[:, :3], np.tile(np.eye(3), (2, 1)))
        assert_allclose(modes[:3, 3:], [[0, 3, -2], [-3, 0, 1], [2, -1, 0]])

    def test_one_plane_keeps_three(self):
        # reflection across xy keeps in-plane translations and the rotation
        # about the plane normal
        modes = rigid_modes(self.pts, ("xy",))
        assert modes.shape == (6, 3)
        assert_allclose(modes[:3].T, [[1, 0, 0], [0, 1, 0], [-2.0, 1.0, 0.0]])

    def test_two_planes_keep_one_translation(self):
        modes = rigid_modes(self.pts, ("xy", "yz"))
        assert_allclose(modes.T, [[0.0, 1.0, 0.0] * 2])

    def test_full_symmetry_kills_all(self):
        assert rigid_modes(self.pts, ("xy", "xz", "yz")).shape == (6, 0)

    @staticmethod
    def field_modes(model, colloc):
        modes = rigid_modes(colloc.positions, model.symmetry_planes)
        return np.linalg.solve(colloc.node_values,
                               modes.reshape(len(colloc), -1)
                               ).reshape(3 * len(colloc), -1)

    def test_pinning_makes_cube_solvable(self):
        model = build_cube_model(order=2)
        colloc = collocation_points(model)
        n = 3 * len(colloc)
        modes = self.field_modes(model, colloc)
        matrix, rhs = pin_rigid_motion(*assemble(model, colloc), modes)
        assert matrix.shape == (n + 6, n + 6) and rhs.shape == (n + 6,)
        coeffs, residual = solve(matrix, rhs)
        assert residual < 1e-10
        x = coeffs[:n]
        assert np.linalg.norm(modes.T @ x) <= 1e-12 * np.linalg.norm(x)
        sol = solve_model(model)
        assert np.array_equal(sol.coefficients, x)
        assert sol.residual == residual

    def test_octant_system_is_not_bordered(self):
        model = octant_model(2, 0.4)
        colloc = collocation_points(model)
        matrix, rhs = assemble(model, colloc)
        assert self.field_modes(model, colloc).shape[1] == 0
        coeffs, residual = solve(matrix, rhs)
        sol = solve_model(model)
        assert np.array_equal(sol.coefficients, coeffs)
        assert sol.residual == residual

    @pytest.mark.parametrize("order", [2, 4])
    def test_border_does_not_depend_on_units(self, order):
        # unorthonormalised modes of a cube this size give 1.4e-13 and
        # 2.1e-13 at orders 2 and 4
        cube = build_cube_model(order)
        model = dataclasses.replace(cube, patches=tuple(
            dataclasses.replace(p, control_points=1e3 * p.control_points)
            for p in cube.patches))
        assert solve_model(model).residual <= 1e-14

    def test_removal_annihilates_rigid_fields(self):
        model = build_cube_model(order=2)
        colloc = collocation_points(model)
        pos = colloc.positions
        rigid = (np.array([0.1, -0.2, 0.3])
                 + np.cross([0.02, 0.05, -0.01], pos))
        cleaned = remove_rigid_motion(colloc, rigid.ravel())
        assert np.abs(cleaned).max() < 1e-14

    def test_removal_is_idempotent(self):
        model = build_cube_model(order=2)
        colloc = collocation_points(model)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(3 * len(colloc))
        once = remove_rigid_motion(colloc, coeffs)
        twice = remove_rigid_motion(colloc, once)
        assert_allclose(twice, once, atol=1e-12)

    @pytest.mark.parametrize("planes", [(), ("xy",), ("xz", "yz")])
    def test_removal_needs_only_positions(self, planes):
        model = build_trimmed_cube_model(order=2)
        colloc = collocation_points(model)
        coeffs = np.random.default_rng(5).standard_normal(3 * len(colloc))
        plain = SimpleNamespace(positions=colloc.positions.copy())
        assert np.array_equal(remove_rigid_motion(plain, coeffs, planes),
                              remove_rigid_motion(colloc, coeffs, planes))


def bulged_cube(order):
    """The cube with its top face bulged to z = 1.3 (a biquadratic net)."""
    net = np.array([[[i / 2, j / 2, 1.0] for j in range(3)]
                    for i in range(3)])
    net[1, 1, 2] = 1.3
    cube = build_cube_model(order)
    top = NurbsPatch(unit_interval_space(2), unit_interval_space(2), net,
                     np.ones((3, 3)), flip_normal=cube.patches[1].flip_normal)
    return dataclasses.replace(
        cube, patches=(cube.patches[0], top) + cube.patches[2:])


def quadratic_trim_cube(order):
    """The flat cube with its top face split along the quadratic trim curve
    through (0.4, 0), (0.6, 0.5), (0.4, 1)."""
    cube = build_trimmed_cube_model(order)
    line = unit_interval_space(1)
    curve = TrimmingCurve(unit_interval_space(2),
                          np.array([[0.4, 0.0], [0.6, 0.5], [0.4, 1.0]]))
    left = TrimmingCurve(line, np.array([[0.0, 0.0], [0.0, 1.0]]))
    right = TrimmingCurve(line, np.array([[1.0, 0.0], [1.0, 1.0]]))
    top = cube.patches[1].base
    halves = (TrimmedPatch(top, left, curve), TrimmedPatch(top, curve, right))
    return dataclasses.replace(
        cube, patches=(cube.patches[0], *halves) + cube.patches[3:])


def seam_cube(order):
    """The unit cube from its bottom and top faces and one bilinear wall
    wrapped around the four sides, whose first and last control columns
    coincide. The wall's field has a C0 knot at each vertical edge, and its
    first and last Greville columns merge into the same nodes."""
    cube = build_cube_model(order)
    ring = np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1], [0, 0]])
    net = np.stack([np.column_stack([ring, np.full(5, z)])
                    for z in (0.0, 1.0)], axis=1)
    wall = NurbsPatch(BasisSpace([0, 0, 0.25, 0.5, 0.75, 1, 1], 1),
                      unit_interval_space(1), net, np.ones((5, 2)))
    field = FieldSpacePair.from_orders(
        order, interior_u=np.repeat([0.25, 0.5, 0.75], order))
    return dataclasses.replace(cube, patches=cube.patches[:2] + (wall,),
                               field_pairs=cube.field_pairs[:2] + (field,))


@pytest.mark.parametrize("build, order, bound", [
    *[(bulged_cube, order, 3e-10) for order in (2, 3, 4, 5)],
    # the solution itself is only this accurate here: 1.4e-7 at order 2
    *[(quadratic_trim_cube, order, 3e-7) for order in (2, 3, 4)],
])
def test_removal_keeps_the_solution_on_curved_maps(build, order, bound):
    """Neither model's patch maps are all affine, so node samples of a
    rigid field are not the field's coefficients; the removal must still
    leave the uniaxial solution, checked at points."""
    model = build(order)
    sol = solve_model(model)
    rng = np.random.default_rng(order)
    points, diffs = [], []
    for k, patch in enumerate(model.patches):
        params = rng.uniform(0.0, 1.0, (50, 2))
        points.append(patch.points_at(params))
        diffs.append(evaluate_displacement_many(model, sol, k, params)
                     - analytic_uniaxial(points[-1]))
    # the solution's gauge differs from the exact field's by a rigid motion
    diff = remove_rigid_motion(SimpleNamespace(
        positions=np.concatenate(points)), np.concatenate(diffs).ravel())
    assert np.abs(diff).max() / UNIAXIAL_SCALE <= bound


class TestPatchTest:
    def test_cube_order_two(self):
        rel, sol = patch_test_error(build_cube_model(order=2))
        assert rel < 1e-6
        assert sol.residual < 1e-10
        assert sol.dof_count == 78

    def test_trimmed_cube_order_two(self):
        rel, sol = patch_test_error(build_trimmed_cube_model(order=2))
        assert rel < 1e-6
        assert sol.dof_count == 96

    def test_octant_with_three_mirror_planes(self):
        faces = tuple(_bilinear_face(_CUBE_FACES[i]) for i in (1, 2, 4))
        model = BoundaryModel(
            faces,
            tuple(FieldSpacePair.from_orders(2) for _ in faces),
            Material(1000.0, 0.0),
            load=LoadState(np.array([0.0, 0, 1.0, 0, 0, 0])),
            symmetry_planes=("xy", "xz", "yz"),
        )
        rel, sol = patch_test_error(model)
        assert rel < 1e-6
        assert sol.residual < 1e-10

    def test_half_cube_under_shear_with_one_mirror_plane(self):
        # [0, 1]^2 x [-1, 1]: the unit cube less its z = 0 face, closed by
        # the xy plane, which allows the shear sigma_xy that three planes
        # forbid; nodes at z = 0 have one target for both images
        rel, sol = mirrored_cube_error((1, 2, 3, 4, 5), ("xy",),
                                       [0.5, -0.3, 1.0, 0.8, 0.0, 0.0], 3)
        # measured 8.2e-10, with or without the on-plane image reuse
        assert rel <= 2e-9
        assert sol.residual < 1e-10

    @pytest.mark.parametrize("order", [2, 3])
    def test_quarter_cube_with_two_mirror_planes(self, order):
        # [-1, 1]^2 x [0, 1]: the unit cube less its x = 0 and y = 0 faces,
        # closed by the yz and xz planes, a group of four images; nodes on
        # the z axis have one target for all four
        rel, sol = mirrored_cube_error((0, 1, 2, 4), ("yz", "xz"),
                                       [0.5, -0.3, 1.0, 0.0, 0.0, 0.0], order)
        # measured 5.8e-10 (order 2) and 5.4e-10 (order 3)
        assert rel <= 2e-9
        assert sol.residual < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_seam_patch_passes_the_patch_test(self, order):
        # the wall's grid holds each seam node twice, and both copies'
        # kernel contributions and basis values must count
        model = seam_cube(order)
        grid = collocation_points(model).grids[2]
        assert np.array_equal(grid[0], grid[-1])
        rel, _ = patch_test_error(model)
        assert rel <= 1e-8


def test_solve_builds_node_values_once(monkeypatch):
    built = []
    build = gibem.assembly.node_values
    monkeypatch.setattr(gibem.assembly, "node_values",
                        lambda *args: built.append(build(*args)) or built[-1])
    sol = solve_model(build_cube_model(order=2))
    assert len(built) == 1
    assert sol.colloc.node_values is built[0]


@pytest.fixture(scope="module")
def cube_solution():
    model = build_cube_model(order=2)
    return model, solve_model(model)


class TestEvaluate:
    def test_constant_coefficients(self):
        model = build_cube_model(order=2)
        sol = solve_model(model)
        const = np.tile([0.3, -0.1, 0.7], len(sol.colloc))
        forged = type(sol)(const, sol.colloc, sol.field_orders, 0.0)
        for patch in range(6):
            u = evaluate_displacement_many(model, forged, patch,
                                           [[0.37, 0.81]])[0]
            assert_allclose(u, [0.3, -0.1, 0.7], atol=1e-13)

    def test_brute_force_oracle(self):
        from gibem.splines import bspline_basis_many

        model = build_cube_model(order=3)
        colloc = collocation_points(model)
        rng = np.random.default_rng(19)
        coeffs = rng.standard_normal(3 * len(colloc))
        sol_cls = solve_model(build_cube_model(order=2)).__class__
        sol = sol_cls(coeffs, colloc, ((3, 3),) * 6, 0.0)
        pair = model.field_pairs[2]
        grid = colloc.grids[2]
        u, v = 0.42, 0.17
        bu = bspline_basis_many(pair.space_u, [u])[0]
        bv = bspline_basis_many(pair.space_v, [v])[0]
        expected = np.zeros(3)
        for a in range(pair.n_u):
            for b in range(pair.n_v):
                expected += bu[a] * bv[b] * coeffs.reshape(-1, 3)[grid[a, b]]
        assert_allclose(
            evaluate_displacement_many(model, sol, 2, [[u, v]])[0], expected,
            atol=1e-14,
        )

    def test_unknown_patch(self):
        model = build_cube_model(order=2)
        sol = solve_model(model)
        with pytest.raises(ModelError):
            evaluate_displacement_many(model, sol, 6, [[0.5, 0.5]])

    @pytest.mark.parametrize("params", [
        [[0.5, 0.5, 9.0]],  # a third column used to be dropped
        [0.5],
        [0.5, 0.5],
        [[[0.5, 0.5]]],
    ], ids=["three-columns", "one-value", "flat-pair", "three-dims"])
    def test_params_must_be_m_by_2(self, cube_solution, params):
        model, sol = cube_solution
        with pytest.raises(ModelError, match=r"\(m, 2\)"):
            evaluate_displacement_many(model, sol, 1, params)

    @pytest.mark.parametrize("index", [1.0, "1", None],
                             ids=["float", "str", "none"])
    def test_patch_index_must_be_an_integer(self, cube_solution, index):
        model, sol = cube_solution
        with pytest.raises(ModelError, match="integer"):
            evaluate_displacement_many(model, sol, index, [[0.5, 0.5]])
        assert_allclose(
            evaluate_displacement_many(model, sol, np.int64(1), [[0.5, 0.5]]),
            evaluate_displacement_many(model, sol, 1, [[0.5, 0.5]]),
            rtol=0.0, atol=0.0,
        )

    def test_no_points_give_no_rows(self, cube_solution):
        model, sol = cube_solution
        u = evaluate_displacement_many(model, sol, 0, np.zeros((0, 2)))
        assert u.shape == (0, 3)

    def test_nan_parameter_is_a_domain_error(self, cube_solution):
        model, sol = cube_solution
        with pytest.raises(ParameterDomainError):
            evaluate_displacement_many(model, sol, 1, [[np.nan, 0.5]])


@pytest.fixture(scope="module", params=["cube", "trimmed"])
def solved(request):
    build = {"cube": build_cube_model, "trimmed": build_trimmed_cube_model}
    model = build[request.param]()
    return model, solve_model(model)


class TestBatchIndependence:
    """A batched row equals the same point evaluated alone, bit for bit."""

    @staticmethod
    def assert_rows_match(model, solution, patch, params):
        batch = evaluate_displacement_many(model, solution, patch, params)
        single = np.array([
            evaluate_displacement_many(model, solution, patch, [[u, v]])[0]
            for u, v in params
        ])
        assert batch.shape == (len(params), 3)
        assert_allclose(batch, single, rtol=0.0, atol=0.0)

    @pytest.mark.parametrize("size", [2, 11, 65])
    def test_random_batches(self, solved, size):
        model, solution = solved
        rng = np.random.default_rng(size)
        for patch in range(model.n_patches):
            params = rng.random((size, 2))
            params[0] = (0.0, 1.0)
            self.assert_rows_match(model, solution, patch, params)

    def test_default_vtk_grid(self, solved):
        model, solution = solved
        ts = np.linspace(0.0, 1.0, model.config.viz_samples)
        uu, vv = np.meshgrid(ts, ts, indexing="ij")
        params = np.column_stack([uu.ravel(), vv.ravel()])
        assert len(params) == 17 * 17
        for patch in range(model.n_patches):
            self.assert_rows_match(model, solution, patch, params)


class TestRefinement:
    def test_elevation_decouples_geometry(self):
        model = build_cube_model(order=2)
        raised = elevate_model_order(model, 4)
        assert raised.patches is model.patches
        assert all(pair.orders == (4, 4) for pair in raised.field_pairs)
        colloc = collocation_points(raised)
        assert len(colloc) == 98
        # every collocation point still sits on the cube surface
        pos = colloc.positions
        on_face = np.isclose(pos, 0.0, atol=1e-12) | np.isclose(
            pos, 1.0, atol=1e-12
        )
        assert np.all(on_face.any(axis=1))

    def test_elevation_keeps_pairs_at_or_above_the_order(self):
        model = build_cube_model(order=2)
        pairs = list(model.field_pairs)
        pairs[0] = FieldSpacePair.from_orders(4)
        pairs[1] = FieldSpacePair.from_orders(3, 2)
        raised = elevate_model_order(model.with_field_pairs(pairs), 3)
        assert raised.field_pairs[0] is pairs[0]
        assert raised.field_pairs[1] is pairs[1]
        assert all(pair.orders == (3, 3) for pair in raised.field_pairs[2:])
