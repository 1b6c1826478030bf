"""Field spaces, load states, symmetry declarations, cube builders."""
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibem.errors import ModelError
from gibem.kernels import Material
from gibem.model import (
    BoundaryModel,
    FieldSpacePair,
    LoadState,
    SolverConfig,
    build_cube_model,
    build_trimmed_cube_model,
    reflection_matrix,
    symmetry_group,
)
from gibem.splines import BasisSpace, greville_abscissae


class TestFieldSpacePair:
    def test_from_orders_counts(self):
        pair = FieldSpacePair.from_orders(2)
        assert pair.orders == (2, 2)
        assert (pair.n_u, pair.n_v, pair.n_total) == (3, 3, 9)

    def test_greville_grid(self):
        pair = FieldSpacePair.from_orders(2, 1)
        grid = pair.greville_params()
        assert grid.shape == (6, 2)
        assert_allclose(grid[0], [0.0, 0.0])
        assert_allclose(grid[1], [0.0, 1.0])
        assert_allclose(grid[3], [0.5, 1.0])

    def test_values_partition_of_unity(self):
        pair = FieldSpacePair.from_orders(3, 2, interior_u=[0.4])
        rng = np.random.default_rng(7)
        params = rng.random((40, 2))
        vals = pair.values(params)
        assert vals.shape == (40, pair.n_total)
        assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)

    def test_flat_ordering_matches_outer_product(self):
        from gibem.splines import bspline_basis_many

        pair = FieldSpacePair.from_orders(2, 1)
        vals = pair.values(np.array([[0.3, 0.8]]))[0]
        bu = bspline_basis_many(pair.space_u, [0.3])[0]
        bv = bspline_basis_many(pair.space_v, [0.8])[0]
        assert_allclose(vals, np.outer(bu, bv).ravel(), atol=1e-15)

    def test_value_rows_do_not_depend_on_batch(self):
        pair = FieldSpacePair.from_orders(4, 3, interior_u=[0.3, 0.6])
        params = np.random.default_rng(10).uniform(0, 1, (25, 2))
        batch = pair.values(params)
        for i in range(len(params)):
            assert_allclose(batch[i], pair.values(params[i:i + 1])[0],
                            rtol=0, atol=0)

    @pytest.mark.parametrize("orders, interior_u, interior_v", [
        ((2, 2), [0.5], [0.25, 0.75]),
        ((3, 4), [0.3, 0.3, 0.6], [0.2, 0.5]),
        ((5, 1), [0.1, 0.4, 0.4, 0.9], [0.5]),
    ])
    def test_values_equal_the_einsum_outer_product(self, orders, interior_u,
                                                  interior_v):
        from gibem.splines import bspline_basis_many

        pair = FieldSpacePair.from_orders(*orders, interior_u, interior_v)
        params = np.random.default_rng(sum(orders)).uniform(0, 1, (200, 2))
        bu = bspline_basis_many(pair.space_u, params[:, 0])
        bv = bspline_basis_many(pair.space_v, params[:, 1])
        dense = np.einsum("ma,mb->mab", bu, bv).reshape(len(params), -1)
        assert np.array_equal(pair.values(params), dense)

    def test_elevated(self):
        pair = FieldSpacePair.from_orders(2)
        up = pair.elevated(4)
        assert up.orders == (4, 4)
        assert up.n_total == 25
        with pytest.raises(ModelError):
            pair.elevated(2)

    def test_rejects_wrong_interval(self):
        off = BasisSpace(np.array([0.0, 0, 1, 2, 2.0]), 1)
        good = BasisSpace(np.array([0.0, 0, 1, 1.0]), 1)
        with pytest.raises(ModelError, match="span"):
            FieldSpacePair(off, good)

    def test_rejects_degree_zero(self):
        flat = BasisSpace(np.array([0.0, 0.5, 1.0]), 0)
        with pytest.raises(ModelError, match="degree"):
            FieldSpacePair(flat, flat)

    @pytest.mark.parametrize("interior", [[0.5, 0.5, 0.5], [0.0], [0.3, 1.0]])
    def test_rejects_knot_repeated_above_degree(self, interior):
        """Two basis functions would share a Greville point."""
        with pytest.raises(ModelError, match="repeats knot"):
            FieldSpacePair.from_orders(2, interior_v=interior)

    def test_knot_repeated_degree_times_is_kept_by_elevation(self):
        pair = FieldSpacePair.from_orders(2, interior_u=[0.5, 0.5])
        assert np.all(np.diff(greville_abscissae(pair.space_u)) > 0)
        up = pair.elevated(4)
        assert list(up.space_u.knots).count(0.5) == 4


class TestLoadState:
    def test_matrix_layout(self):
        load = LoadState(np.array([1.0, 2, 3, 4, 5, 6]))
        expected = np.array([[1.0, 4, 6], [4, 2, 5], [6, 5, 3]])
        assert_allclose(load.stress_matrix(), expected)

    def test_uniaxial_traction(self):
        load = LoadState(np.array([0.0, 0, 1, 0, 0, 0]))
        normals = np.array([[0.0, 0, 1], [0, 0, -1], [1, 0, 0]])
        t = load.traction(normals)
        assert_allclose(t, [[0, 0, 1], [0, 0, -1], [0, 0, 0]])
        assert_allclose(load.traction(normals, sign=-1.0), -t)

    def test_validation(self):
        with pytest.raises(ModelError):
            LoadState(np.array([1.0, 2, 3]))
        with pytest.raises(ModelError):
            LoadState(np.array([1.0, 2, 3, 4, 5, np.nan]))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.gauss_order == 8
        assert cfg.singular_gauss_order == 12
        assert cfg.quadtree_threshold == 1.0
        assert cfg.quadtree_max_depth == 6

    def test_merge_tol_resolution(self):
        assert SolverConfig().resolved_merge_tol(2.0) == pytest.approx(2e-8)
        assert SolverConfig(merge_tol=1e-5).resolved_merge_tol(2.0) == 1e-5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gauss_order": 0},
            {"gauss_order": 65},
            {"singular_gauss_order": -1},
            {"quadtree_threshold": 0.0},
            {"quadtree_max_depth": -2},
            {"merge_tol": -1.0},
            {"viz_samples": 1},
            {"gauss_order": 8.5},
            {"gauss_order": 8.0},
            {"gauss_order": True},
            {"singular_gauss_order": True},
            {"quadtree_max_depth": 1.5},
            {"viz_samples": 2.5},
            {"excavation_sign": 0.5},
            {"excavation_sign": True},
            {"excavation_sign": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ModelError):
            SolverConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(gauss_order=np.int64(6),
                           quadtree_max_depth=np.int32(2),
                           excavation_sign=np.float64(-1.0))
        assert cfg.gauss_order == 6 and cfg.excavation_sign == -1

    @pytest.mark.parametrize("name", ["quadtree_threshold", "merge_tol"])
    def test_nan_rejected(self, name):
        with pytest.raises(ModelError, match=name):
            SolverConfig(**{name: float("nan")})


def test_reflection_matrices():
    assert_allclose(reflection_matrix("xy"), np.diag([1.0, 1, -1]))
    assert_allclose(reflection_matrix("xz"), np.diag([1.0, -1, 1]))
    assert_allclose(reflection_matrix("yz"), np.diag([-1.0, 1, 1]))
    with pytest.raises(ModelError):
        reflection_matrix("uv")


def test_symmetry_group_sizes():
    assert len(symmetry_group(())) == 1
    assert_allclose(symmetry_group(())[0], np.eye(3))
    assert len(symmetry_group(("xy",))) == 2
    group = symmetry_group(("xy", "xz", "yz"))
    assert len(group) == 8
    # products cover every sign pattern exactly once
    signs = {tuple(np.sign(np.diag(m)).astype(int)) for m in group}
    assert len(signs) == 8


@pytest.mark.parametrize("planes", [
    planes for size in range(4)
    for planes in itertools.combinations(("xy", "xz", "yz"), size)
])
def test_symmetry_group_is_diagonal(planes):
    """Assembly scales kernel columns by the mirror's diagonal."""
    for mat in symmetry_group(planes):
        assert np.array_equal(mat, np.diag(np.diag(mat)))
        assert set(np.diag(mat)) <= {1.0, -1.0}


class TestBoundaryModel:
    def test_cube_builder(self):
        model = build_cube_model(order=2)
        assert model.n_patches == 6
        lo, hi = model.bbox()
        assert_allclose(lo, [0, 0, 0], atol=1e-15)
        assert_allclose(hi, [1, 1, 1], atol=1e-15)
        assert model.bbox_diagonal() == pytest.approx(np.sqrt(3.0))
        # every face normal points away from the cube center
        for patch in model.patches:
            frame = patch.frames_at(np.array([[0.5, 0.5]]))
            outward = frame.positions[0] - np.array([0.5, 0.5, 0.5])
            assert frame.normals[0] @ outward > 0.4

    def test_trimmed_cube_builder(self):
        model = build_trimmed_cube_model(order=2, split=0.5)
        assert model.n_patches == 7
        left, right = model.patches[1], model.patches[2]
        assert_allclose(left.points_at(np.array([[1.0, 0.25]])),
                        right.points_at(np.array([[0.0, 0.25]])), atol=1e-14)
        assert_allclose(left.points_at(np.array([[1.0, 0.3]]))[0, 0], 0.5,
                        atol=1e-14)
        assert left.frames_at(np.array([[0.5, 0.5]])).normals[0] @ [0, 0, 1] > 0.99
        with pytest.raises(ModelError):
            build_trimmed_cube_model(split=1.0)

    def test_field_pair_count_must_match(self):
        model = build_cube_model()
        with pytest.raises(ModelError, match="field space"):
            BoundaryModel(model.patches, model.field_pairs[:-1],
                          model.material)

    def test_duplicate_planes_rejected(self):
        model = build_cube_model()
        with pytest.raises(ModelError, match="duplicate"):
            BoundaryModel(model.patches, model.field_pairs, model.material,
                          symmetry_planes=("xy", "xy"))

    def test_incompatible_stress_rejected(self):
        model = build_cube_model()
        shear = LoadState(np.array([0.0, 0, 0, 1.0, 0, 0]))
        with pytest.raises(ModelError, match="symmetry"):
            BoundaryModel(model.patches, model.field_pairs, model.material,
                          load=shear, symmetry_planes=("yz",))

    def test_diagonal_stress_compatible_with_all_planes(self):
        model = build_cube_model()
        BoundaryModel(
            model.patches,
            model.field_pairs,
            model.material,
            load=LoadState(np.array([1.0, 2.0, 3.0, 0, 0, 0])),
            symmetry_planes=("xy", "xz", "yz"),
        )

    def test_field_elevation_leaves_patches_alone(self):
        model = build_cube_model(order=2)
        raised = model.with_field_pairs(
            [pair.elevated(3) for pair in model.field_pairs]
        )
        assert raised.patches is model.patches
        assert raised.field_pairs[0].orders == (3, 3)

    def test_needs_material(self):
        model = build_cube_model()
        assert isinstance(model.material, Material)
        assert model.material.youngs_modulus == 1000.0
        assert model.load is not None
        assert_allclose(model.load.virgin_stress, [0, 0, 1, 0, 0, 0])
