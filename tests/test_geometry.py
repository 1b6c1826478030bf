"""Surface evaluation, frames, and the two-curve trimming map."""
import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from numpy.testing import assert_allclose

from gibem.errors import DegenerateTrimError, GeometryError, SingularFrameError
from gibem.geometry import (
    _SPAN_BATCH,
    NurbsPatch,
    TrimmedPatch,
    TrimmingCurve,
    _plane_map,
    build_quarter_cylinder,
    straight_trim_pair,
)
from gibem.splines import (
    BasisSpace,
    bspline_basis_derivs_many,
    bspline_span_basis,
    greville_abscissae,
    unit_interval_space,
)


def point(patch, u, v):
    return patch.points_at(np.array([[u, v]]))[0]


def plane_map(tp, s, t):
    """Plane position and 2x2 Jacobian of a trimmed patch at (s, t)."""
    pos, jac, _ = _plane_map(tp.curve_a, tp.curve_b, np.array([[s, t]]))
    return pos[:, 0], jac[:, :, 0]


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


FRAME_FIELDS = ("positions", "tangents_u", "tangents_v", "normals", "areas")


@st.composite
def multi_span_spaces(draw, max_degree=4):
    """Clamped spaces on [0, 1] of degree 1 to ``max_degree``, with up to
    three interior knots a tenth or more apart, possibly repeated."""
    degree = draw(st.integers(1, max_degree))
    breaks = draw(st.lists(st.integers(1, 9), max_size=3, unique=True))
    interior = []
    for b in sorted(breaks):
        interior += [b / 10] * draw(st.integers(1, degree))
    return unit_interval_space(degree, interior)


def greville_net(space_u, space_v, rng, rational):
    """A net over the Greville grid, lifted randomly in z, so the patch maps
    onto the unit square in x, y and its tangents never become parallel."""
    uu, vv = np.meshgrid(greville_abscissae(space_u),
                         greville_abscissae(space_v), indexing="ij")
    net = np.stack([uu, vv, rng.uniform(-0.3, 0.3, uu.shape)], axis=-1)
    weights = rng.uniform(0.5, 2.0, uu.shape) if rational else np.ones(uu.shape)
    return net, weights


def bulged_face():
    """The top face of the unit cube bulged to z = 1.3 at a weight-0.8
    centre, the curved face of ``scripts/compare_assembly.py``."""
    net = np.array([[[i / 2, j / 2, 1.0] for j in range(3)] for i in range(3)])
    net[1, 1, 2] = 1.3
    weights = np.ones((3, 3))
    weights[1, 1] = 0.8
    return NurbsPatch(unit_interval_space(2), unit_interval_space(2), net, weights)


@st.composite
def nurbs_patches(draw):
    space_u, space_v = draw(multi_span_spaces()), draw(multi_span_spaces())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net, weights = greville_net(space_u, space_v, rng, draw(st.booleans()))
    return NurbsPatch(space_u, space_v, net, weights)


@st.composite
def curved_trims(draw, base):
    """``base`` trimmed between two curves of degree 1 to 3 that run from
    v = 0 to v = 1, one left of u = 0.4 and one right of u = 0.6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    curves = []
    for lo, hi in ((0.0, 0.4), (0.6, 1.0)):
        space = draw(multi_span_spaces(max_degree=3))
        t = greville_abscissae(space)
        curves.append(TrimmingCurve(
            space, np.column_stack([rng.uniform(lo, hi, t.size), t])))
    return TrimmedPatch(base, *curves)


def sample_rows(patch, rng, count):
    """``count`` random parameters, shuffled together with the corners and
    rows that put every knot and Greville point of the patch (and of its
    trim curves) in each coordinate."""
    base = getattr(patch, "base", patch)
    spaces = [base.space_u, base.space_v]
    if patch is not base:
        spaces += [patch.curve_a.space, patch.curve_b.space]
    special = np.unique(np.concatenate(
        [s.knots for s in spaces] + [greville_abscissae(s) for s in spaces]))
    rows = np.concatenate([
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
        np.column_stack([special, rng.permutation(special)]),
        np.column_stack([rng.permutation(special), special]),
        rng.uniform(0, 1, (count, 2)),
    ])
    return rows[rng.permutation(len(rows))]


any_patch = st.one_of(
    nurbs_patches(),
    nurbs_patches().flatmap(curved_trims),
    st.just(bulged_face()).flatmap(curved_trims),
    st.just(bulged_face()),
)


def cube_top_face():
    """The bilinear face (u, v) -> (u, v, 1) of the cube models."""
    net = np.array([[[0.0, 0, 1], [0, 1, 1]], [[1, 0, 1], [1, 1, 1]]])
    return NurbsPatch(unit_interval_space(1), unit_interval_space(1), net,
                      np.ones((2, 2)))


@settings(max_examples=30, deadline=None)
@given(any_patch, st.integers(0, 2**32 - 1), st.integers(40, 120))
@example(cube_top_face(), 0, 200)
def test_every_row_equals_its_one_row_call(patch, seed, count):
    params = sample_rows(patch, np.random.default_rng(seed), count)
    try:
        batch = patch.frames_at(params)
    except SingularFrameError:
        reject()
    points = patch.points_at(params)
    for i in range(len(params)):
        assert np.array_equal(points[i], patch.points_at(params[i:i + 1])[0])
        one = patch.frames_at(params[i:i + 1])
        for name in FRAME_FIELDS:
            assert np.array_equal(getattr(batch, name)[i],
                                  getattr(one, name)[0]), (name, params[i])


def test_batches_larger_than_one_gather_equal_small_batches():
    patch = TrimmedPatch(bulged_face(), *straight_trim_pair(0.2, 0.9))
    params = np.random.default_rng(4).uniform(0, 1, (2 * _SPAN_BATCH + 7, 2))
    points, frames = patch.points_at(params), patch.frames_at(params)
    for lo in range(0, len(params), 500):
        rows = slice(lo, lo + 500)
        assert np.array_equal(points[rows], patch.points_at(params[rows]))
        part = patch.frames_at(params[rows])
        for name in FRAME_FIELDS:
            assert np.array_equal(getattr(frames, name)[rows], getattr(part, name))


def reference_span_basis(space, us):
    """Points-first reference for ``bspline_span_basis(space, us, True)``:
    the recursion and de Boor derivatives as computed before the tables
    went component-major, with tables (len(us), p + 1)."""
    kv, p = space.knots, space.degree
    us = np.clip(us, *space.domain)
    spans = np.clip(np.searchsorted(kv, us, side="right") - 1, p,
                    space.n_basis - 1)
    m = us.size
    vals, lower = np.zeros((m, p + 1)), np.zeros((m, p + 1))
    vals[:, 0] = 1.0
    left, right = np.zeros((m, p + 1)), np.zeros((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = us - kv[spans + 1 - j]
        right[:, j] = kv[spans + j] - us
        lower, vals = vals, lower
        saved = np.zeros(m)
        for r in range(j):
            tmp = lower[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, j - r] * tmp
        vals[:, j] = saved
    ends = spans[:, None] + np.arange(1, p + 1)
    d = (kv[ends] - us[:, None]) + (us[:, None] - kv[ends - p])
    quotients = (1.0 / d) * lower[:, :p]
    ders = np.zeros_like(vals)
    ders[:, 1:] = quotients
    ders[:, :p] -= quotients
    ders *= float(p)
    return spans - p, [vals, ders]


def reference_sum(table, terms):
    """Points-first ``fixed_order_sum``: table (m, k), terms (m, k, ...)."""
    table = table.reshape(table.shape + (1,) * (terms.ndim - 2))
    total = table[:, 0] * terms[:, 0]
    for r in range(1, table.shape[1]):
        total += table[:, r] * terms[:, r]
    return total


def reference_frames(patch, params):
    """Points-first reference for ``frames_at``: positions, u and v (or s
    and t) tangents, normals and areas, each row (m, 3) or (m,), gathered
    and summed as before the component-major layout."""
    if hasattr(patch, "base"):
        s, t = params[:, 0], params[:, 1]
        curves = []
        for curve in (patch.curve_a, patch.curve_b):
            first, tables = reference_span_basis(curve.space, t)
            near = curve.control_points[
                first[:, None] + np.arange(curve.space.degree + 1)]
            curves.append([reference_sum(table, near) for table in tables])
        (pa, da), (pb, db) = curves
        pos = (1.0 - s)[:, None] * pa + s[:, None] * pb
        jac = np.empty((len(params), 2, 2))
        jac[:, :, 0] = pb - pa
        jac[:, :, 1] = (1.0 - s)[:, None] * da + s[:, None] * db
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        x, tu, tv, normals, areas = reference_frames(patch.base, pos)
        return (x, tu * jac[:, 0, 0, None] + tv * jac[:, 1, 0, None],
                tu * jac[:, 0, 1, None] + tv * jac[:, 1, 1, None],
                normals, areas * det)
    first_u, tables_u = reference_span_basis(patch.space_u, params[:, 0])
    first_v, tables_v = reference_span_basis(patch.space_v, params[:, 1])
    w = patch.weights[:, :, None]
    net = np.concatenate([w * patch.control_points, w], axis=2)
    n_v = patch.space_v.n_basis
    offsets = np.arange(patch.space_v.degree + 1)[:, None] \
        + n_v * np.arange(patch.space_u.degree + 1)
    near = net.reshape(-1, 4)[(first_u * n_v + first_v)[:, None, None] + offsets]
    along_v = [reference_sum(table, near) for table in tables_v]
    hom, hom_u, hom_v = (reference_sum(tables_u[0], along_v[0]),
                         reference_sum(tables_u[1], along_v[0]),
                         reference_sum(tables_u[0], along_v[1]))
    den = hom[:, 3:]
    x = hom[:, :3] / den
    tu = (hom_u[:, :3] - x * hom_u[:, 3:]) / den
    tv = (hom_v[:, :3] - x * hom_v[:, 3:]) / den
    cross = np.cross(tu, tv)
    areas = np.linalg.norm(cross, axis=1)
    normals = cross / areas[:, None]
    return x, tu, tv, -normals if patch.flip_normal else normals, areas


@settings(max_examples=40, deadline=None)
@given(any_patch, st.integers(0, 2**32 - 1), st.integers(40, 120))
@example(TrimmedPatch(bulged_face(), *straight_trim_pair(0.2, 0.9)), 4,
         2 * _SPAN_BATCH + 7)
@example(bulged_face(), 5, _SPAN_BATCH + 1)
def test_rows_equal_the_points_first_reference(patch, seed, count):
    """The component-major basis tables, points and frames are bit for bit
    those of the points-first recursion and gather they replaced: every
    element-wise operation kept its operands and its order."""
    params = sample_rows(patch, np.random.default_rng(seed), count)
    try:
        frames = patch.frames_at(params)
    except SingularFrameError:
        reject()
    expected = reference_frames(patch, params)
    assert np.array_equal(patch.points_at(params), expected[0])
    for name, want in zip(FRAME_FIELDS, expected, strict=True):
        assert np.array_equal(getattr(frames, name), want), name
    base, uv, spaces = getattr(patch, "base", patch), params, []
    if patch is not base:
        uv = _plane_map(patch.curve_a, patch.curve_b, params)[0].T
        spaces = [(c.space, params[:, 1]) for c in (patch.curve_a, patch.curve_b)]
    spaces += [(base.space_u, uv[:, 0]), (base.space_v, uv[:, 1])]
    for space, us in spaces:
        first, tables = bspline_span_basis(space, us, derivs=True)
        ref_first, ref_tables = reference_span_basis(space, us)
        assert np.array_equal(first, ref_first)
        for table, ref in zip(tables, ref_tables, strict=True):
            assert table.shape == ref.T.shape and np.array_equal(table, ref.T)


def dense_frames(patch, params):
    """Position and u and v tangents from full basis tables, one contraction
    over the whole control net per sum, each with the size of the terms it
    sums: sum |N_a N_b| w (|x| + |position|) / W, entry by entry."""
    du = bspline_basis_derivs_many(patch.space_u, params[:, 0])
    dv = bspline_basis_derivs_many(patch.space_v, params[:, 1])
    w, x = patch.weights, patch.control_points
    bases = [(du[:, 0], dv[:, 0]), (du[:, 1], dv[:, 0]), (du[:, 0], dv[:, 1])]
    den = [np.einsum("ma,mb,ab->m", a, b, w)[:, None] for a, b in bases]
    num = [np.einsum("ma,mb,abk->mk", a, b, w[:, :, None] * x) for a, b in bases]
    pos = num[0] / den[0]
    out = [pos] + [(n - pos * d) / den[0] for n, d in zip(num[1:], den[1:])]
    sizes = [(np.einsum("ma,mb,abk->mk", abs(a), abs(b), w[:, :, None] * abs(x))
              + abs(pos) * np.einsum("ma,mb,ab->m", abs(a), abs(b), w)[:, None])
             / den[0] for a, b in bases]
    return out, sizes


@settings(max_examples=60, deadline=None)
@given(st.one_of(nurbs_patches(), st.just(bulged_face())),
       st.integers(0, 2**32 - 1))
def test_rows_match_the_dense_formula(patch, seed):
    params = sample_rows(patch, np.random.default_rng(seed), 50)
    frames = patch.frames_at(params)
    expected, sizes = dense_frames(patch, params)
    got = (frames.positions, frames.tangents_u, frames.tangents_v)
    for a, b, size in zip(got, expected, sizes):
        assert (np.abs(a - b) <= 1e-14 * size).all()
    assert np.array_equal(patch.points_at(params), frames.positions)
