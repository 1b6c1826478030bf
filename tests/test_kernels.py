"""Fundamental solution kernels and their invariances."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from gibem.errors import KernelSingularityError, ModelError
from gibem.kernels import Material, kelvin_T_many, kelvin_U_many


def U_at(source, point, mat):
    """Displacement kernel at one field point, column j from U e_j."""
    diff = (np.asarray(point, dtype=float) - source)[:, None]
    return np.column_stack([kelvin_U_many(diff, mat, e)[0]
                            for e in np.eye(3)])


def T_at(source, point, normal, mat):
    """Traction kernel at one field point, as a one-row batch."""
    return kelvin_T_many((np.asarray(point, dtype=float) - source)[:, None],
                         np.asarray(normal, dtype=float)[:, None], mat)[0]


@pytest.fixture
def mat():
    return Material(youngs_modulus=1000.0, poisson_ratio=0.0)


class TestMaterial:
    def test_shear_modulus(self, mat):
        assert mat.shear_modulus == 500.0

    def test_modulus_must_be_positive(self):
        with pytest.raises(ModelError):
            Material(-5.0, 0.3)

    @pytest.mark.parametrize("nu", [-1.0, 0.5, 0.7])
    def test_poisson_range(self, nu):
        with pytest.raises(ModelError):
            Material(1000.0, nu)


class TestDisplacementKernel:
    def test_unit_offset_value(self, mat):
        U = U_at([0, 0, 0], [1, 0, 0], mat)
        assert_allclose(U[0, 0], 1.0 / (2000.0 * np.pi), rtol=1e-15)
        # off-axis diagonal entries carry only the (3 - 4 nu) term
        assert_allclose(U[1, 1], 3.0 / (16.0 * np.pi * 500.0), rtol=1e-15)
        assert_allclose(U[0, 1], 0.0, atol=0)

    def test_symmetry(self, mat):
        rng = np.random.default_rng(0)
        for _ in range(20):
            U = U_at(rng.normal(size=3), rng.normal(size=3) * 3, mat)
            assert_allclose(U, U.T, atol=1e-18)

    def test_inverse_distance_scaling(self, mat):
        src = np.zeros(3)
        d = np.array([0.3, -0.5, 0.81])
        U1 = U_at(src, d, mat)
        U2 = U_at(src, 7.5 * d, mat)
        assert_allclose(U2 * 7.5, U1, rtol=1e-13)

    def test_coincident_points_raise(self, mat):
        with pytest.raises(KernelSingularityError):
            U_at([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], mat)


class TestTractionKernel:
    def test_inverse_square_scaling(self, mat):
        src = np.zeros(3)
        d = np.array([1.1, 0.2, -0.4])
        n = np.array([0.0, 0.6, 0.8])
        T1 = T_at(src, d, n, mat)
        T2 = T_at(src, 4.0 * d, n, mat)
        assert_allclose(T2 * 16.0, T1, rtol=1e-13)

    def test_linear_in_normal(self, mat):
        src = np.zeros(3)
        q = np.array([0.4, 0.9, -0.3])
        n1 = np.array([1.0, 0.0, 0.0])
        n2 = np.array([0.0, 0.0, 1.0])
        combo = T_at(src, q, 0.25 * n1 + 0.75 * n2, mat)
        parts = 0.25 * T_at(src, q, n1, mat) + 0.75 * T_at(src, q, n2, mat)
        assert_allclose(combo, parts, atol=1e-18)

    def test_sign_flips_with_normal(self, mat):
        src = np.zeros(3)
        q = np.array([0.4, 0.9, -0.3])
        n = np.array([0.0, 1.0, 0.0])
        assert_allclose(
            T_at(src, q, -n, mat), -T_at(src, q, n, mat), atol=0
        )

    def test_perpendicular_normal_leaves_rotation_part(self):
        """With n perpendicular to r the symmetric part vanishes and what is
        left is proportional to (n_i r_j - r_i n_j)."""
        mat = Material(1.0, 0.3)
        src = np.zeros(3)
        q = np.array([2.0, 0.0, 0.0])
        n = np.array([0.0, 1.0, 0.0])
        T = T_at(src, q, n, mat)
        assert_allclose(T + T.T, 0.0, atol=1e-18)
        rdir = np.array([1.0, 0.0, 0.0])
        pattern = np.outer(n, rdir) - np.outer(rdir, n)
        coeff = -(1.0 - 2.0 * 0.3) / (8.0 * np.pi * (1.0 - 0.3) * 4.0)
        assert_allclose(T, coeff * pattern, rtol=1e-14)

    def test_matches_stress_of_displacement_state(self):
        """Independent construction: differentiate the displacement kernel,
        form the stress through Hooke's law, contract with the normal.  The
        influence matrix used in the boundary identity is its transpose."""
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            mat = Material(float(rng.uniform(50, 4000)), float(rng.uniform(-0.3, 0.45)))
            g = mat.shear_modulus
            nu = mat.poisson_ratio
            lam = 2.0 * g * nu / (1.0 - 2.0 * nu)
            src = rng.normal(size=3)
            q = src + rng.normal(size=3) * 2.5
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            grad = np.zeros((3, 3, 3))
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                grad[:, :, k] = (U_at(src, q + e, mat) - U_at(src, q - e, mat)) / (2 * h)
            T_ref = np.zeros((3, 3))
            for j in range(3):
                eps = 0.5 * (grad[:, j, :] + grad[:, j, :].T)
                sig = lam * np.trace(eps) * np.eye(3) + 2.0 * g * eps
                T_ref[:, j] = sig @ n
            T = T_at(src, q, n, mat)
            assert_allclose(T, T_ref.T, rtol=0, atol=5e-7 * np.abs(T_ref).max())

    def test_rotation_invariance(self):
        mat = Material(750.0, 0.21)
        rng = np.random.default_rng(8)
        for _ in range(15):
            rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(rot) < 0:
                rot[:, 0] = -rot[:, 0]
            src = rng.normal(size=3)
            q = src + rng.normal(size=3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            U = U_at(src, q, mat)
            U_rot = U_at(rot @ src, rot @ q, mat)
            assert_allclose(U_rot, rot @ U @ rot.T, atol=1e-12 * np.abs(U).max())
            T = T_at(src, q, n, mat)
            T_rot = T_at(rot @ src, rot @ q, rot @ n, mat)
            assert_allclose(T_rot, rot @ T @ rot.T, atol=1e-12 * np.abs(T).max())


def test_closed_surface_traction_identity():
    """Integrating T over a closed box around the source gives -I."""
    from numpy.polynomial.legendre import leggauss

    mat = Material(1000.0, 0.25)
    src = np.array([0.31, 0.47, 0.52])
    x, w = leggauss(40)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    total = np.zeros((3, 3))
    for axis in range(3):
        for side in (0.0, 1.0):
            nrm = np.zeros(3)
            nrm[axis] = 1.0 if side == 1.0 else -1.0
            other = [a for a in range(3) if a != axis]
            for ui, wu in zip(x, w):
                pts = np.zeros((x.size, 3))
                pts[:, axis] = side
                pts[:, other[0]] = ui
                pts[:, other[1]] = x
                T = kelvin_T_many((pts - src).T,
                                  np.tile(nrm, (x.size, 1)).T, mat)
                total += np.einsum("m,mij->ij", wu * w, T)
    assert_allclose(total, -np.eye(3), atol=1e-6)


class TestPairLayout:
    """(m, 1) points against (1, n) sources, as assembly feeds the kernels."""

    @pytest.fixture
    def pairs(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(7, 3))
        src = rng.normal(size=(4, 3))
        nrm = rng.normal(size=(7, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        trac = rng.normal(size=(7, 3))
        return pts, src, nrm, trac

    def test_blocks_match_one_pair_calls(self, pairs):
        mat = Material(800.0, 0.31)
        pts, src, nrm, trac = pairs
        diff = pts.T[:, :, None] - src.T[:, None, :]
        T = kelvin_T_many(diff, nrm.T[:, :, None], mat)
        U = kelvin_U_many(diff, mat, trac.T[:, :, None])
        assert T.shape == (7, 4, 3, 3) and U.shape == (7, 4, 3)
        for i in range(7):
            for j in range(4):
                one = (pts[i] - src[j])[:, None]
                assert_allclose(
                    T[i, j], kelvin_T_many(one, nrm[i][:, None], mat)[0],
                    rtol=0, atol=0,
                )
                assert_allclose(
                    U[i, j], kelvin_U_many(one, mat, trac[i][:, None])[0],
                    rtol=0, atol=0,
                )

    def test_zero_normal_and_traction_give_zero(self, pairs, mat):
        pts, src, _, _ = pairs
        diff = pts.T[:, :, None] - src.T[:, None, :]
        zero = np.zeros((3, 7, 1))
        assert not kelvin_T_many(diff, zero, mat).any()
        assert not kelvin_U_many(diff, mat, zero).any()

    def test_coincident_pair_raises(self, pairs, mat):
        pts, src, nrm, trac = pairs
        src[2] = pts[5]
        diff = pts.T[:, :, None] - src.T[:, None, :]
        with pytest.raises(KernelSingularityError):
            kelvin_T_many(diff, nrm.T[:, :, None], mat)
        with pytest.raises(KernelSingularityError):
            kelvin_U_many(diff, mat, trac.T[:, :, None])


def test_batch_rows_match_one_row_batches(mat):
    rng = np.random.default_rng(12)
    src = np.array([0.1, 0.2, 0.3])
    pts = src + rng.normal(size=(25, 3))
    nrm = rng.normal(size=(25, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    U = np.stack([kelvin_U_many((pts - src).T, mat, e) for e in np.eye(3)],
                 axis=-1)
    T = kelvin_T_many((pts - src).T, nrm.T, mat)
    for i in range(25):
        assert_allclose(U[i], U_at(src, pts[i], mat), atol=0)
        assert_allclose(T[i], T_at(src, pts[i], nrm[i], mat), atol=0)


coordinate = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
vector = st.tuples(coordinate, coordinate, coordinate).map(np.array)
sign = st.sampled_from([1.0, -1.0])


@settings(max_examples=60, deadline=None)
@given(flip=st.tuples(sign, sign, sign).map(np.array), on_plane=st.booleans(),
       source=vector, point=vector, normal=vector, traction=vector,
       nu=st.floats(-0.9, 0.45))
def test_reflections_flip_kernel_signs_exactly(
        flip, on_plane, source, point, normal, traction, nu):
    """Under any product M of the three coordinate reflections, diagonal
    ``flip``, the kernels of M point - source, M normal and M traction are
    those of point - M source, normal and traction times M on both sides,
    M T M, and M (U t), bit for bit: every product in the kernels flips
    sign as a whole. A source on the planes of M is its own image."""
    if on_plane:
        source[flip < 0] = 0.0
    assume(np.linalg.norm(point - flip * source) > 1e-3)
    mat = Material(1000.0, nu)
    columns = [c[:, None] for c in (point - flip * source, normal, traction)]
    mirrored = [c[:, None] for c in (flip * point - source, flip * normal,
                                     flip * traction)]
    T = kelvin_T_many(columns[0], columns[1], mat)
    assert np.array_equal(kelvin_T_many(mirrored[0], mirrored[1], mat),
                          T * flip[:, None] * flip)
    U_t = kelvin_U_many(columns[0], mat, columns[2])
    assert np.array_equal(kelvin_U_many(mirrored[0], mat, mirrored[2]),
                          U_t * flip)
