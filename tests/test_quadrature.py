"""Gauss rules, region partitioning, quad-tree refinement, singular scheme."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gibem.errors import QuadratureError
from gibem.geometry import NurbsPatch
from gibem.kernels import Material, kelvin_T_many
from gibem.quadrature import (
    PAIR,
    contains_mask,
    far_mask,
    gauss_points,
    gauss_rule,
    quadtree_refine,
    region_partition,
    region_samples,
    singular_quadrature_points,
    split,
)
from gibem.splines import unit_interval_space


def area(bounds):
    """Areas of (r, 4) rectangles (u0, v0, u1, v1)."""
    u0, v0, u1, v1 = np.asarray(bounds, dtype=float).reshape(-1, 4).T
    return (u1 - u0) * (v1 - v0)


def make_pairs(bounds, rows=0, depth=0):
    """PAIR records of (r, 4) ``bounds``, record k in base region k."""
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 4)
    pairs = np.zeros(len(bounds), PAIR)
    pairs["row"], pairs["base"] = rows, np.arange(len(bounds))
    pairs["bounds"], pairs["depth"] = bounds, depth
    return pairs


@pytest.fixture
def flat_patch():
    return NurbsPatch(
        unit_interval_space(1),
        unit_interval_space(1),
        np.array([[[0.0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]]),
        np.ones((2, 2)),
    )


class TestGaussRule:
    def test_weights_sum_to_two(self):
        for order in (1, 2, 8, 33, 64):
            rule = gauss_rule(order)
            assert_allclose(rule.weights.sum(), 2.0, rtol=1e-14)
            assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)

    def test_polynomial_exactness(self):
        rule = gauss_rule(5)
        # degree 9 is integrated exactly by 5 points
        val = (rule.weights * rule.nodes**8).sum()
        assert_allclose(val, 2.0 / 9.0, rtol=1e-13)

    @pytest.mark.parametrize("order", [0, -3, 65, 2.5])
    def test_rejects_bad_order(self, order):
        with pytest.raises(QuadratureError):
            gauss_rule(order)


class TestRegionPartition:
    def test_quadratic_pair_gives_four(self):
        space = unit_interval_space(2)
        regions = region_partition(space, space)
        assert regions.shape == (4, 4)
        assert_allclose(area(regions).sum(), 1.0, atol=0)

    def test_linear_pair_gives_one(self):
        space = unit_interval_space(1)
        assert len(region_partition(space, space)) == 1

    def test_collocation_points_on_corners(self):
        from gibem.splines import greville_abscissae

        space = unit_interval_space(3, [0.5])
        regions = region_partition(space, space)
        grev = greville_abscissae(space)
        corners = {
            (round(u, 12), round(v, 12))
            for u0, v0, u1, v1 in regions
            for u in (u0, u1)
            for v in (v0, v1)
        }
        for gu in grev:
            for gv in grev:
                assert (round(gu, 12), round(gv, 12)) in corners


class TestRegion:
    def test_split_preserves_area(self):
        region = (0.25, 0.5, 0.75, 1.0)
        kids = split(make_pairs(region))
        assert len(kids) == 4
        assert_allclose(area(kids["bounds"]).sum(), area(region)[0], atol=0)
        assert (kids["depth"] == 1).all()

    def test_gauss_points_integrate_polynomial(self):
        params, wts = gauss_points((0.0, 0.25, 0.5, 1.0), gauss_rule(4))
        val = (wts * params[:, 0] ** 2 * params[:, 1]).sum()
        exact = (0.5**3 / 3.0) * ((1.0**2 - 0.25**2) / 2.0)
        assert_allclose(val, exact, rtol=1e-14)


def _fan(region, source, rule, radial=None):
    """One fan from the array builder: its parameters and weights."""
    params, weights, counts = singular_quadrature_points(
        [region], [source], radial or rule, rule)
    assert counts.tolist() == [len(weights)]
    return params, weights


class TestSingularScheme:
    def test_inverse_r_center(self):
        """1/r over the unit square from its center has a closed form."""
        exact = 4.0 * np.log(1.0 + np.sqrt(2.0))
        region = (0, 0, 1, 1)
        errs = []
        for order in (8, 12, 16):
            pts, w = _fan(region, (0.5, 0.5), gauss_rule(order))
            r = np.linalg.norm(pts - np.array([0.5, 0.5]), axis=1)
            errs.append(abs((w / r).sum() - exact))
        assert errs[0] < 1e-5
        assert errs[1] < 1e-8
        assert errs[2] < 1e-6 * errs[0] + 1e-12
        assert errs[2] <= errs[1] <= errs[0]

    def test_inverse_r_corner(self):
        """A corner source fans into two triangles only."""
        region = (0, 0, 1, 1)
        pts, w = _fan(region, (0.0, 0.0), gauss_rule(12))
        assert len(w) == 2 * 12 * 12
        r = np.linalg.norm(pts, axis=1)
        assert_allclose((w / r).sum(), 2.0 * np.log(1.0 + np.sqrt(2.0)), atol=1e-9)

    def test_inverse_r_mid_edge(self):
        # frozen from an adaptive reference integration of the same integrand
        region = (0, 0, 1, 1)
        pts, w = _fan(region, (0.5, 0.0), gauss_rule(16))
        r = np.linalg.norm(pts - np.array([0.5, 0.0]), axis=1)
        assert_allclose((w / r).sum(), 2.406059125298018, atol=1e-9)

    def test_constant_is_exact(self):
        region = (0.25, 0.5, 0.75, 1.0)
        _, w = _fan(region, (0.3, 0.9), gauss_rule(8))
        assert_allclose(w.sum(), area(region)[0], rtol=1e-13)

    def test_smooth_matches_tensor_rule(self):
        region = (0, 0, 1, 1)
        f = lambda p: np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1])
        pts, w = _fan(region, (0.4, 0.6), gauss_rule(20))
        tensor_pts, tensor_w = gauss_points(region, gauss_rule(20))
        assert_allclose((w * f(pts)).sum(), (tensor_w * f(tensor_pts)).sum(),
                        rtol=1e-12)

    def test_source_outside_region_rejected(self):
        region = (0, 0, 0.5, 0.5)
        with pytest.raises(QuadratureError):
            _fan(region, (0.9, 0.9), gauss_rule(4))


def _one_fan(region, source_param, rule):
    """The per-fan singular scheme as it was before the array builder:
    four triangles (source, corner k, corner k + 1), a flat one skipped,
    at ``rule.order`` points in both directions."""
    s = np.asarray(source_param, dtype=float)
    u0, v0, u1, v1 = region
    corners = np.array([[u0, v0], [u1, v0], [u1, v1], [u0, v1]])
    x01 = 0.5 * (rule.nodes + 1.0)
    w01 = 0.5 * rule.weights
    xi = np.repeat(x01, rule.order)
    eta = np.tile(x01, rule.order)
    ww = np.outer(w01, w01).reshape(-1)
    params, weights = [], []
    for k in range(4):
        v1 = corners[k]
        v2 = corners[(k + 1) % 4]
        twice_area = abs(
            (v1[0] - s[0]) * (v2[1] - s[1]) - (v2[0] - s[0]) * (v1[1] - s[1])
        )
        if twice_area <= 1e-14 * max(area(region)[0], 1e-30):
            continue
        params.append(
            s[None, :]
            + xi[:, None] * ((v1 - s)[None, :] + eta[:, None] * (v2 - v1)[None, :])
        )
        weights.append(ww * xi * twice_area)
    return np.concatenate(params), np.concatenate(weights)


# a source coordinate: on the low edge, on the high edge or a fraction in between
_where = st.one_of(st.sampled_from(["lo", "hi"]), st.floats(0.0, 1.0))


@st.composite
def _rectangle(draw):
    """(u0, v0, u1, v1) in the unit square, each side at least 1e-3."""
    u0, v0 = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.9))
    return (u0, v0, draw(st.floats(u0 + 1e-3, 1.0)),
            draw(st.floats(v0 + 1e-3, 1.0)))


@st.composite
def _fans(draw):
    region = u0, v0, u1, v1 = draw(_rectangle())
    source = [lo if at == "lo" else hi if at == "hi" else lo + at * (hi - lo)
              for (lo, hi), at in zip(((u0, u1), (v0, v1)),
                                      (draw(_where), draw(_where)))]
    return region, source


@settings(max_examples=80, deadline=None)
@given(fans=st.lists(_fans(), min_size=1, max_size=6),
       order=st.integers(1, 16))
def test_builder_matches_the_per_fan_scheme_bit_for_bit(fans, order):
    """At equal radial and angular orders, one builder call over many fans
    gives every fan's points and weights exactly as the per-fan scheme,
    with interior, edge and corner sources, so flat triangles dropped."""
    rule = gauss_rule(order)
    params, weights, counts = singular_quadrature_points(
        [r for r, _ in fans], [s for _, s in fans], rule, rule)
    expected = [_one_fan(region, source, rule) for region, source in fans]
    assert counts.tolist() == [len(w) for _, w in expected]
    assert_array_equal(params, np.concatenate([p for p, _ in expected]))
    assert_array_equal(weights, np.concatenate([w for _, w in expected]))


@pytest.mark.parametrize("p", range(1, 10))
def test_radial_order_p_plus_one_is_exact_on_polynomials(p):
    """(P(u, v) - P(s)) / |(u, v) - s|^2, P a tensor polynomial of degree
    (p, p), is a polynomial of degree 2p - 1 along each fan ray times the
    Duffy Jacobian's cancellation, so p + 1 radial points give what 24 do."""
    coeffs = np.random.default_rng(p).uniform(-1.0, 1.0, (p + 1, p + 1))
    poly = lambda x: np.polynomial.polynomial.polyval2d(x[:, 0], x[:, 1], coeffs)
    region = (0.2, 0.1, 0.9, 0.6)
    angular = gauss_rule(24)
    for source in ((0.43, 0.37), (0.2, 0.28), (0.75, 0.6), (0.2, 0.1),
                   (0.9, 0.6)):
        totals = []
        for radial in (gauss_rule(p + 1), angular):
            pts, w = _fan(region, source, angular, radial)
            f = (poly(pts) - poly(np.array([source])))
            f /= ((pts - source) ** 2).sum(axis=1)
            totals.append((w * f).sum())
        assert abs(totals[0] - totals[1]) <= 1e-13 * abs(totals[1])


def contains(region, param, tol):
    """True when the point lies in the closed rectangle (with slack)."""
    u, v = param
    u0, v0, u1, v1 = region
    return u0 - tol <= u <= u1 + tol and v0 - tol <= v <= v1 + tol


def test_contains_mask_matches_contains():
    regions = np.concatenate([
        [(0.1, 0.7, 0.3, 0.9)],
        split(make_pairs((0.0, 0.2, 1.0 / 3.0, 0.7)))["bounds"]])
    values = set()
    for region in regions:
        for edge in region:
            lo, hi = edge - 1e-9, edge + 1e-9
            values |= {edge, lo, hi, np.nextafter(lo, -np.inf),
                       np.nextafter(hi, np.inf)}
    values = sorted(values)
    params = np.array([(u, v) for u in values for v in values])
    expected = [[contains(region, p, tol=1e-9) for region in regions]
                for p in params]
    mask = contains_mask(params[:, None], regions)
    assert_array_equal(mask, expected)
    # each corner is inside, one step beyond the slack is outside
    outward = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    for region in regions:
        u0, v0, u1, v1 = region
        corners = np.array([[u0, v0], [u1, v0], [u1, v1], [u0, v1]])
        assert contains_mask(corners, region).all()
        beyond = np.nextafter(corners + 1e-9 * outward, np.inf * outward)
        assert not contains_mask(beyond, region).any()


def _refine_one(regions, source, point_fn, **kwargs):
    """``quadtree_refine`` for a single source and no singular parameters;
    its PAIR records, in order."""
    return quadtree_refine(make_pairs(regions), [source], np.zeros((1, 0, 2)),
                           point_fn, **kwargs)


class TestQuadtree:
    def test_far_source_leaves_regions_alone(self, flat_patch):
        space = unit_interval_space(2)
        regions = region_partition(space, space)
        refined = _refine_one(regions, [0.5, 0.5, 50.0], flat_patch.points_at)
        assert len(refined) == len(regions)

    def test_near_source_splits_and_preserves_area(self, flat_patch):
        space = unit_interval_space(2)
        regions = region_partition(space, space)
        refined = _refine_one(regions, [0.5, 0.5, 0.05], flat_patch.points_at)
        assert len(refined) > len(regions)
        assert refined["depth"].max() >= 2
        assert_allclose(area(refined["bounds"]).sum(), 1.0, atol=1e-14)

    def test_depth_cap_warns(self, flat_patch, caplog):
        space = unit_interval_space(1)
        regions = region_partition(space, space)
        source = np.array([0.5, 0.5, 1e-6])
        with caplog.at_level(logging.WARNING, logger="gibem.quadrature"):
            refined = _refine_one(
                regions, source, flat_patch.points_at, max_depth=3
            )
        assert refined["depth"].max() == 3
        capped = np.count_nonzero(~far_mask(
            region_samples(refined["bounds"], flat_patch.points_at),
            source[None, None]
        )[0])
        [record] = [rec for rec in caplog.records
                    if "depth cap" in rec.message]
        # the benchmark's cap-hit counter reads this argument
        assert capped > 0
        assert record.args[1] == capped

    def test_improves_near_singular_integral(self, flat_patch):
        space = unit_interval_space(2)
        mat = Material(1000.0, 0.25)
        src = np.array([0.5, 0.5, 0.05])

        def integrate(regions, order):
            total = np.zeros((3, 3))
            for region in regions:
                params, wts = gauss_points(region, gauss_rule(order))
                fr = flat_patch.frames_at(params)
                tk = kelvin_T_many((fr.positions - src).T, fr.normals.T, mat)
                total += np.einsum("m,ijm->ij", wts * fr.areas, tk)
            return total

        base = region_partition(space, space)
        reference = integrate([(0, 0, 1, 1)], 64)
        coarse_err = np.abs(integrate(base, 8) - reference).max()
        refined = _refine_one(base, src, flat_patch.points_at)["bounds"]
        refined_err = np.abs(integrate(refined, 8) - reference).max()
        assert refined_err < coarse_err / 10.0
        assert refined_err < 1e-4


def _curved_patch():
    """Biquadratic patch over the unit square with a bulge and a twist."""
    grid = np.linspace(0.0, 1.0, 3)
    controls = np.array(
        [[[u, v, 0.4 * (u == 0.5) * (v == 0.5) + 0.2 * u * v] for v in grid]
         for u in grid]
    )
    space = unit_interval_space(2)
    return NurbsPatch(space, space, controls, np.ones((3, 3)))


_CURVED = _curved_patch()


@settings(max_examples=60, deadline=None)
@given(bounds=st.lists(_rectangle(), min_size=1, max_size=6),
       order=st.integers(1, 16), depth=st.integers(0, 6))
def test_one_call_over_rectangles_is_one_call_per_rectangle(bounds, order,
                                                            depth):
    """``gauss_points``, ``region_samples`` and ``split`` treat each row on
    its own: one call over r rectangles gives what r one-rectangle calls
    give, bit for bit, which keeps the assembled matrix independent of how
    regions are batched."""
    rule = gauss_rule(order)
    together = gauss_points(bounds, rule)
    apart = [gauss_points(region, rule) for region in bounds]
    for got, *parts in zip(together, *apart, strict=True):
        assert_array_equal(got, np.concatenate(parts))
    assert_array_equal(
        region_samples(bounds, _CURVED.points_at),
        np.concatenate([region_samples(region, _CURVED.points_at)
                        for region in bounds]))
    pairs = make_pairs(bounds, rows=7, depth=depth)
    assert_array_equal(split(pairs), np.concatenate(
        [split(pairs[k:k + 1]) for k in range(len(pairs))]))
_cuts = st.lists(
    st.floats(0.02, 0.98), max_size=3, unique=True
).map(lambda c: np.unique(np.round([0.0, *c, 1.0], 2)))


@settings(max_examples=60, deadline=None)
@given(
    cuts_u=_cuts,
    cuts_v=_cuts,
    target=st.tuples(*[st.floats(-1.0, 2.0)] * 3),
    threshold=st.floats(0.25, 4.0),
)
def test_quadtree_keeps_exactly_the_far_regions(cuts_u, cuts_v, target,
                                                threshold):
    regions = np.array([
        (u0, v0, u1, v1)
        for u0, u1 in zip(cuts_u[:-1], cuts_u[1:])
        for v0, v1 in zip(cuts_v[:-1], cuts_v[1:])
    ])
    target = np.array(target)
    far = far_mask(
        region_samples(regions, _CURVED.points_at), target[None, None],
        threshold
    )[0]
    out = _refine_one(regions, target, _CURVED.points_at,
                      threshold=threshold, max_depth=2)
    # far regions come back unsplit: their own bounds at depth 0
    unsplit = out["bounds"][out["depth"] == 0]
    for region, is_far in zip(regions, far):
        assert (unsplit == region).all(axis=1).any() == bool(is_far)
        (u0, v0, u1, v1), b = region, out["bounds"].T
        inside = (u0 <= b[0]) & (b[2] <= u1) & (v0 <= b[1]) & (b[3] <= v1)
        if not is_far:
            assert (out["depth"][inside] > 0).all()
        assert_allclose(area(out["bounds"][inside]).sum(), area(region)[0],
                        rtol=1e-12)


def _refine_region_by_region(regions, target, threshold, max_depth):
    """Reference quad-tree: every region's samples mapped on their own.

    Returns the kept PAIR records and the bounds visited at each level."""
    out, level, visited = [], list(regions), []
    while level:
        visited.append([tuple(pair["bounds"]) for pair in level])
        deeper = []
        for pair in level:
            samples = region_samples(pair["bounds"], _CURVED.points_at)
            keep = far_mask(samples, target[None, None], threshold)[0, 0]
            if keep or pair["depth"] >= max_depth:
                out.append(pair)
            else:
                deeper.extend(split(pair[None]))
        level = deeper
    return out, visited


@settings(max_examples=40, deadline=None)
@given(
    cuts_u=_cuts,
    cuts_v=_cuts,
    targets=st.lists(
        st.tuples(*[st.floats(-0.5, 1.5)] * 2, st.floats(-0.3, 0.6)),
        min_size=1, max_size=4,
    ),
    threshold=st.floats(0.25, 4.0),
    data=st.data(),
)
def test_quadtree_maps_each_level_in_one_call(cuts_u, cuts_v, targets,
                                              threshold, data):
    regions = np.array([
        (u0, v0, u1, v1)
        for u0, u1 in zip(cuts_u[:-1], cuts_u[1:])
        for v0, v1 in zip(cuts_v[:-1], cuts_v[1:])
    ])
    targets = np.array(targets)
    # each target refines its own nonempty subset of the regions
    chosen = [
        make_pairs(regions, rows=k)[sorted(data.draw(st.lists(
            st.sampled_from(range(len(regions))), min_size=1, unique=True)))]
        for k in range(len(targets))
    ]
    pairs = np.concatenate(chosen)
    # interleave the sources: the output is still grouped by source
    pairs = pairs[data.draw(st.permutations(range(len(pairs))))]
    pairs = pairs[np.argsort(pairs["base"], kind="stable")]
    calls = []

    def point_fn(params):
        calls.append(len(params))
        return _CURVED.points_at(params)

    out = quadtree_refine(pairs, targets, np.zeros((len(targets), 0, 2)),
                          point_fn, threshold=threshold, max_depth=3)
    assert (np.diff(out["row"]) >= 0).all()
    assert np.isnan(out["fan"]).all()
    levels = []
    for k, target in enumerate(targets):
        expected, visited = _refine_region_by_region(chosen[k], target,
                                                     threshold, 3)
        expected = np.array(expected, PAIR)
        for field in ("row", "base", "bounds", "depth"):
            assert_array_equal(out[out["row"] == k][field], expected[field])
        for depth, level in enumerate(visited):
            if depth == len(levels):
                levels.append(set())
            levels[depth].update(level)
    assert calls == [9 * len(level) for level in levels]
