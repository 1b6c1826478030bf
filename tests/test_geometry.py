"""Surface evaluation, frames, and the two-curve trimming map."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gibem.errors import DegenerateTrimError, GeometryError, SingularFrameError
from gibem.geometry import (
    NurbsPatch,
    TrimmedPatch,
    TrimmingCurve,
    _plane_map,
    build_quarter_cylinder,
    straight_trim_pair,
)
from gibem.splines import BasisSpace, unit_interval_space


def point(patch, u, v):
    return patch.points_at(np.array([[u, v]]))[0]


def plane_map(tp, s, t):
    """Plane position and 2x2 Jacobian of a trimmed patch at (s, t)."""
    pos, jac, _ = _plane_map(tp.curve_a, tp.curve_b, np.array([[s, t]]))
    return pos[0], jac[0]


@pytest.fixture
def flat_patch():
    """Unit square in the z = 0 plane, identity parameterization."""
    return NurbsPatch(
        unit_interval_space(1),
        unit_interval_space(1),
        np.array([[[0.0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]]),
        np.ones((2, 2)),
    )


@pytest.fixture
def quarter_cylinder():
    return build_quarter_cylinder(radius=1.0, length=2.0)


class TestPatchValidation:
    def test_shape_mismatch(self):
        with pytest.raises(GeometryError, match="control point"):
            NurbsPatch(
                unit_interval_space(1),
                unit_interval_space(1),
                np.zeros((3, 2, 3)),
                np.ones((2, 2)),
            )

    @pytest.mark.parametrize("point, weight", [
        (0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0),
    ], ids=["nan-weight", "inf-weight", "nan-point", "inf-point"])
    def test_non_finite_net(self, point, weight):
        points = np.zeros((2, 2, 3))
        points[1, 0, 2] = point
        weights = np.ones((2, 2))
        weights[0, 1] = weight
        with pytest.raises(GeometryError, match="finite"):
            NurbsPatch(unit_interval_space(1), unit_interval_space(1),
                       points, weights)

    def test_nonpositive_weight(self):
        with pytest.raises(GeometryError, match="weights"):
            NurbsPatch(
                unit_interval_space(1),
                unit_interval_space(1),
                np.zeros((2, 2, 3)),
                np.array([[1.0, 1.0], [0.0, 1.0]]),
            )


class TestQuarterCylinder:
    def test_textbook_fixture_data(self, quarter_cylinder):
        qc = quarter_cylinder
        assert_allclose(qc.space_u.knots, [0, 0, 0, 1, 1, 1], atol=0)
        assert_allclose(qc.space_v.knots, [0, 0, 1, 1], atol=0)
        assert_allclose(qc.weights, [[1, 1], [0.7, 0.7], [1, 1]], atol=0)

    def test_rounded_weight_deviates_from_circle(self, quarter_cylinder):
        p = point(quarter_cylinder, 0.5, 0.5)
        assert abs(np.hypot(p[0], p[1]) - 1.0) > 1e-4

    def test_exact_weight_hits_circle(self):
        qc = build_quarter_cylinder(radius=2.0, length=1.0, exact_arc=True)
        for u in np.linspace(0, 1, 13):
            p = point(qc, float(u), 0.25)
            assert abs(np.hypot(p[0], p[1]) - 2.0) < 1e-12

    def test_ends_and_sweep(self, quarter_cylinder):
        assert_allclose(point(quarter_cylinder, 0, 0), [1, 0, 0], atol=1e-15)
        assert_allclose(point(quarter_cylinder, 1, 0), [0, 1, 0], atol=1e-15)
        assert_allclose(point(quarter_cylinder, 0, 1), [1, 0, 2], atol=1e-15)


def test_surface_point_matches_direct_sum(flat_patch):
    assert_allclose(point(flat_patch, 0.3, 0.8), [0.3, 0.8, 0.0], atol=1e-15)


def test_frame_tangents_match_finite_differences(quarter_cylinder):
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        u, v = rng.uniform(0.05, 0.95, 2)
        fr = quarter_cylinder.frames_at(np.array([[u, v]]))
        fd_u = (point(quarter_cylinder, u + h, v) - point(quarter_cylinder, u - h, v)) / (2 * h)
        fd_v = (point(quarter_cylinder, u, v + h) - point(quarter_cylinder, u, v - h)) / (2 * h)
        assert_allclose(fr.tangents_u[0], fd_u, atol=1e-5)
        assert_allclose(fr.tangents_v[0], fd_v, atol=1e-5)
        assert_allclose(fr.areas[0], np.linalg.norm(np.cross(fr.tangents_u[0], fr.tangents_v[0])), rtol=1e-14)


def test_unit_normal_orientation(flat_patch):
    fr = flat_patch.frames_at(np.array([[0.4, 0.6]]))
    assert_allclose(fr.normals[0], [0, 0, 1], atol=1e-15)
    flipped = NurbsPatch(
        flat_patch.space_u,
        flat_patch.space_v,
        flat_patch.control_points,
        flat_patch.weights,
        flip_normal=True,
    )
    assert_allclose(flipped.frames_at(np.array([[0.4, 0.6]])).normals[0], [0, 0, -1], atol=1e-15)


def test_degenerate_frame_raises():
    # all control points on one line: tangents are parallel everywhere
    cps = np.zeros((2, 2, 3))
    cps[:, :, 0] = [[0, 1], [0, 1]]
    patch = NurbsPatch(unit_interval_space(1), unit_interval_space(1), cps, np.ones((2, 2)))
    with pytest.raises(SingularFrameError):
        patch.frames_at(np.array([[0.5, 0.5]]))


class TestTrimmingCurve:
    def test_knots_rescaled_to_unit(self):
        space = BasisSpace([2.0, 2.0, 4.0, 4.0], 1)
        curve = TrimmingCurve(space, np.array([[0.1, 0.0], [0.9, 1.0]]))
        assert curve.space.domain == (0.0, 1.0)

    def test_control_points_outside_square(self):
        with pytest.raises(GeometryError, match="unit square|\\[0, 1\\]"):
            TrimmingCurve(unit_interval_space(1), np.array([[0.0, 0.0], [1.3, 1.0]]))

    def test_nan_control_point(self):
        with pytest.raises(GeometryError, match="\\[0, 1\\]"):
            TrimmingCurve(unit_interval_space(1),
                          np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_reversed_swaps_ends(self):
        curve = TrimmingCurve(unit_interval_space(2), np.array([[0.1, 0.0], [0.5, 0.4], [0.2, 1.0]]))
        rev = curve.reversed()
        assert_allclose(rev.evaluate([0.0])[0, 0], [0.2, 1.0], atol=0)
        assert_allclose(rev.evaluate([1.0])[0, 0], [0.1, 0.0], atol=0)


class TestTrimMap:
    def test_straight_line_example(self, flat_patch):
        ca, cb = straight_trim_pair(0.25, 0.75)
        tp = TrimmedPatch(flat_patch, ca, cb)
        pos, jac = plane_map(tp, 0.5, 0.3)
        assert_allclose(pos, [0.5, 0.3], atol=1e-15)
        assert_allclose(jac, [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_jacobian_against_finite_differences(self, flat_patch):
        quad = unit_interval_space(2)
        ca = TrimmingCurve(quad, np.array([[0.1, 0.0], [0.3, 0.5], [0.15, 1.0]]))
        cb = TrimmingCurve(quad, np.array([[0.8, 0.0], [0.7, 0.5], [0.9, 1.0]]))
        tp = TrimmedPatch(flat_patch, ca, cb)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(30):
            s, t = rng.uniform(0.05, 0.95, 2)
            jac = plane_map(tp, s, t)[1]
            fd_s = (plane_map(tp, s + h, t)[0] - plane_map(tp, s - h, t)[0]) / (2 * h)
            fd_t = (plane_map(tp, s, t + h)[0] - plane_map(tp, s, t - h)[0]) / (2 * h)
            assert_allclose(jac[:, 0], fd_s, atol=1e-8)
            assert_allclose(jac[:, 1], fd_t, atol=1e-8)

    def test_second_curve_auto_reversed(self, flat_patch):
        ca = TrimmingCurve(unit_interval_space(1), np.array([[0.25, 0.0], [0.25, 1.0]]))
        cb = TrimmingCurve(unit_interval_space(1), np.array([[0.75, 1.0], [0.75, 0.0]]))
        tp = TrimmedPatch(flat_patch, ca, cb)
        assert_allclose(plane_map(tp, 1.0, 0.0)[0], [0.75, 0.0], atol=0)
        assert_allclose(plane_map(tp, 1.0, 1.0)[0], [0.75, 1.0], atol=0)

    def test_crossing_curves_rejected(self, flat_patch):
        ca = TrimmingCurve(unit_interval_space(1), np.array([[0.8, 0.0], [0.2, 1.0]]))
        cb = TrimmingCurve(unit_interval_space(1), np.array([[0.2, 0.0], [0.8, 1.0]]))
        with pytest.raises(DegenerateTrimError):
            TrimmedPatch(flat_patch, ca, cb)

    def test_fold_between_validation_samples_raises_on_every_evaluation(self, flat_patch):
        # curve b doubles back in a narrow band of t that the construction
        # grid of 17 samples per side steps over
        ca = TrimmingCurve(unit_interval_space(1), np.array([[0.5, 0.0], [0.5, 1.0]]))
        bend = BasisSpace([0, 0, 0.52, 0.53, 0.54, 1, 1], 1)
        cb = TrimmingCurve(bend, np.array(
            [[0.9, 0.0], [0.9, 0.52], [0.49, 0.53], [0.9, 0.54], [0.9, 1.0]]
        ))
        tp = TrimmedPatch(flat_patch, ca, cb)
        fold = np.array([[0.5, 0.53]])
        message = r"parameter \(0\.5, 0\.53\)"
        with pytest.raises(DegenerateTrimError, match=message):
            tp.points_at(fold)
        with pytest.raises(DegenerateTrimError, match=message):
            tp.frames_at(fold)

    def test_touching_endpoints_accepted_when_jacobian_positive(self, flat_patch):
        # the curves meet at (0.5, 1): a wedge, still positively oriented below
        ca = TrimmingCurve(unit_interval_space(1), np.array([[0.2, 0.0], [0.499, 1.0]]))
        cb = TrimmingCurve(unit_interval_space(1), np.array([[0.8, 0.0], [0.501, 1.0]]))
        tp = TrimmedPatch(flat_patch, ca, cb)
        assert plane_map(tp, 0.5, 0.5)[1][0, 0] > 0


class TestTrimmedFrames:
    def test_identity_trim_matches_untrimmed(self, quarter_cylinder):
        ca, cb = straight_trim_pair(0.0, 1.0)
        tp = TrimmedPatch(quarter_cylinder, ca, cb)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (40, 2))
        assert_allclose(tp.points_at(pts), quarter_cylinder.points_at(pts), atol=1e-12)
        fa = tp.frames_at(pts)
        fb = quarter_cylinder.frames_at(pts)
        assert_allclose(fa.areas, fb.areas, atol=1e-12)
        assert_allclose(fa.normals, fb.normals, atol=1e-12)

    def test_area_element_chains_both_jacobians(self, flat_patch):
        ca, cb = straight_trim_pair(0.25, 0.75)
        tp = TrimmedPatch(flat_patch, ca, cb)
        fr = tp.frames_at(np.array([[0.5, 0.5]]))
        # flat unit patch has area element 1; the trim squeezes u by 0.5
        assert_allclose(fr.areas[0], 0.5, atol=1e-15)
        assert_allclose(fr.normals[0], [0, 0, 1], atol=1e-15)

    def test_trimmed_band_area_quadrature(self, flat_patch):
        ca = TrimmingCurve(unit_interval_space(1), np.array([[0.2, 0.0], [0.4, 1.0]]))
        cb = TrimmingCurve(unit_interval_space(1), np.array([[0.9, 0.0], [0.7, 1.0]]))
        tp = TrimmedPatch(flat_patch, ca, cb)
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(6)
        x = 0.5 * (x + 1.0)
        w = 0.5 * w
        grid = np.array([[si, ti] for si in x for ti in x])
        wts = np.array([wi * wj for wi in w for wj in w])
        area = float(tp.frames_at(grid).areas @ wts)
        exact = 0.5 * ((0.9 - 0.2) + (0.7 - 0.4))
        assert abs(area - exact) < 1e-10


@pytest.mark.parametrize("trimmed", [False, True])
def test_frame_rows_do_not_depend_on_batch(quarter_cylinder, trimmed):
    patch = quarter_cylinder
    if trimmed:
        quad = unit_interval_space(2)
        ca = TrimmingCurve(quad, np.array([[0.1, 0.0], [0.3, 0.5], [0.15, 1.0]]))
        cb = TrimmingCurve(quad, np.array([[0.8, 0.0], [0.7, 0.5], [0.9, 1.0]]))
        patch = TrimmedPatch(quarter_cylinder, ca, cb)
    pts = np.random.default_rng(8).uniform(0, 1, (25, 2))
    batch = patch.frames_at(pts)
    for i in range(len(pts)):
        one = patch.frames_at(pts[i:i + 1])
        for name in ("positions", "tangents_u", "tangents_v", "normals", "areas"):
            assert_allclose(getattr(batch, name)[i], getattr(one, name)[0],
                            rtol=0, atol=0)


@pytest.mark.parametrize("trimmed", [False, True])
def test_point_rows_do_not_depend_on_batch(quarter_cylinder, trimmed):
    patch = quarter_cylinder
    if trimmed:
        quad = unit_interval_space(2)
        ca = TrimmingCurve(quad, np.array([[0.1, 0.0], [0.3, 0.5], [0.15, 1.0]]))
        cb = TrimmingCurve(quad, np.array([[0.8, 0.0], [0.7, 0.5], [0.9, 1.0]]))
        patch = TrimmedPatch(quarter_cylinder, ca, cb)
    pts = np.random.default_rng(9).uniform(0, 1, (25, 2))
    batch = patch.points_at(pts)
    for i in range(len(pts)):
        assert_allclose(batch[i], patch.points_at(pts[i:i + 1])[0],
                        rtol=0, atol=0)
