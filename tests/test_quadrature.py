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
    IntegrationRegion,
    contains_mask,
    far_mask,
    gauss_rule,
    quadtree_refine,
    region_partition,
    region_samples,
    singular_quadrature_points,
)
from gibem.splines import unit_interval_space


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
        assert len(regions) == 4
        assert_allclose(sum(r.area for r in regions), 1.0, atol=0)

    def test_linear_pair_gives_one(self):
        space = unit_interval_space(1)
        assert len(region_partition(space, space)) == 1

    def test_collocation_points_on_corners(self):
        from gibem.splines import greville_abscissae

        space = unit_interval_space(3, [0.5])
        regions = region_partition(space, space)
        grev = greville_abscissae(space)
        corners = {
            (round(c[0], 12), round(c[1], 12))
            for r in regions
            for c in r.corners()
        }
        for gu in grev:
            for gv in grev:
                assert (round(gu, 12), round(gv, 12)) in corners


class TestRegion:
    def test_split_preserves_area(self):
        region = IntegrationRegion(0.25, 0.75, 0.5, 1.0)
        kids = region.split()
        assert len(kids) == 4
        assert_allclose(sum(k.area for k in kids), region.area, atol=0)
        assert all(k.depth == 1 for k in kids)

    def test_empty_region_rejected(self):
        with pytest.raises(QuadratureError):
            IntegrationRegion(0.5, 0.5, 0.0, 1.0)

    def test_gauss_points_integrate_polynomial(self):
        region = IntegrationRegion(0.0, 0.5, 0.25, 1.0)
        params, wts = region.gauss_points(gauss_rule(4))
        val = (wts * params[:, 0] ** 2 * params[:, 1]).sum()
        exact = (0.5**3 / 3.0) * ((1.0**2 - 0.25**2) / 2.0)
        assert_allclose(val, exact, rtol=1e-14)


class TestSingularScheme:
    def test_inverse_r_center(self):
        """1/r over the unit square from its center has a closed form."""
        exact = 4.0 * np.log(1.0 + np.sqrt(2.0))
        region = IntegrationRegion(0, 1, 0, 1)
        errs = []
        for order in (8, 12, 16):
            pts, w = singular_quadrature_points(region, (0.5, 0.5), gauss_rule(order))
            r = np.linalg.norm(pts - np.array([0.5, 0.5]), axis=1)
            errs.append(abs((w / r).sum() - exact))
        assert errs[0] < 1e-5
        assert errs[1] < 1e-8
        assert errs[2] < 1e-6 * errs[0] + 1e-12
        assert errs[2] <= errs[1] <= errs[0]

    def test_inverse_r_corner(self):
        """A corner source fans into two triangles only."""
        region = IntegrationRegion(0, 1, 0, 1)
        pts, w = singular_quadrature_points(region, (0.0, 0.0), gauss_rule(12))
        assert len(w) == 2 * 12 * 12
        r = np.linalg.norm(pts, axis=1)
        assert_allclose((w / r).sum(), 2.0 * np.log(1.0 + np.sqrt(2.0)), atol=1e-9)

    def test_inverse_r_mid_edge(self):
        # frozen from an adaptive reference integration of the same integrand
        region = IntegrationRegion(0, 1, 0, 1)
        pts, w = singular_quadrature_points(region, (0.5, 0.0), gauss_rule(16))
        r = np.linalg.norm(pts - np.array([0.5, 0.0]), axis=1)
        assert_allclose((w / r).sum(), 2.406059125298018, atol=1e-9)

    def test_constant_is_exact(self):
        region = IntegrationRegion(0.25, 0.75, 0.5, 1.0)
        _, w = singular_quadrature_points(region, (0.3, 0.9), gauss_rule(8))
        assert_allclose(w.sum(), region.area, rtol=1e-13)

    def test_smooth_matches_tensor_rule(self):
        region = IntegrationRegion(0, 1, 0, 1)
        f = lambda p: np.cos(3.0 * p[:, 0]) * np.exp(p[:, 1])
        pts, w = singular_quadrature_points(region, (0.4, 0.6), gauss_rule(20))
        tensor_pts, tensor_w = region.gauss_points(gauss_rule(20))
        assert_allclose((w * f(pts)).sum(), (tensor_w * f(tensor_pts)).sum(),
                        rtol=1e-12)

    def test_source_outside_region_rejected(self):
        region = IntegrationRegion(0, 0.5, 0, 0.5)
        with pytest.raises(QuadratureError):
            singular_quadrature_points(region, (0.9, 0.9), gauss_rule(4))


def test_contains_mask_matches_contains():
    regions = [IntegrationRegion(0.1, 0.3, 0.7, 0.9),
               *IntegrationRegion(0.0, 1.0 / 3.0, 0.2, 0.7).split()]
    values = set()
    for region in regions:
        for edge in (region.u0, region.u1, region.v0, region.v1):
            lo, hi = edge - 1e-9, edge + 1e-9
            values |= {edge, lo, hi, np.nextafter(lo, -np.inf),
                       np.nextafter(hi, np.inf)}
    values = sorted(values)
    params = np.array([(u, v) for u in values for v in values])
    expected = [[region.contains(p, tol=1e-9) for region in regions]
                for p in params]
    mask = contains_mask(params, regions)
    assert_array_equal(mask, expected)
    # each corner is inside, one step beyond the slack is outside
    outward = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    for j, region in enumerate(regions):
        corners = region.corners()
        assert contains_mask(corners, regions)[:, j].all()
        beyond = np.nextafter(corners + 1e-9 * outward, np.inf * outward)
        assert not contains_mask(beyond, regions)[:, j].any()


def _refine_one(regions, source, point_fn, **kwargs):
    """``quadtree_refine`` for a single source; its regions, in order."""
    pairs = quadtree_refine([(0, region) for region in regions], [source],
                            point_fn, **kwargs)
    return [region for _, region in pairs]


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
        assert max(r.depth for r in refined) >= 2
        assert_allclose(sum(r.area for r in refined), 1.0, atol=1e-14)

    def test_depth_cap_warns(self, flat_patch, caplog):
        space = unit_interval_space(1)
        regions = region_partition(space, space)
        source = np.array([0.5, 0.5, 1e-6])
        with caplog.at_level(logging.WARNING, logger="gibem.quadrature"):
            refined = _refine_one(
                regions, source, flat_patch.points_at, max_depth=3
            )
        assert max(r.depth for r in refined) == 3
        capped = np.count_nonzero(~far_mask(
            region_samples(refined, flat_patch.points_at), source[None, None]
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
                params, wts = region.gauss_points(gauss_rule(order))
                fr = flat_patch.frames_at(params)
                tk = kelvin_T_many((fr.positions - src).T, fr.normals.T, mat)
                total += np.einsum("m,ijm->ij", wts * fr.areas, tk)
            return total

        base = region_partition(space, space)
        reference = integrate([IntegrationRegion(0, 1, 0, 1)], 64)
        coarse_err = np.abs(integrate(base, 8) - reference).max()
        refined = _refine_one(base, src, flat_patch.points_at)
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
    regions = [
        IntegrationRegion(u0, u1, v0, v1)
        for u0, u1 in zip(cuts_u[:-1], cuts_u[1:])
        for v0, v1 in zip(cuts_v[:-1], cuts_v[1:])
    ]
    target = np.array(target)
    far = far_mask(
        region_samples(regions, _CURVED.points_at), target[None, None],
        threshold
    )[0]
    out = _refine_one(regions, target, _CURVED.points_at,
                      threshold=threshold, max_depth=2)
    kept = {id(region) for region in out}
    for region, is_far in zip(regions, far):
        assert (id(region) in kept) == bool(is_far)
        inside = [r for r in out
                  if region.u0 <= r.u0 and r.u1 <= region.u1
                  and region.v0 <= r.v0 and r.v1 <= region.v1]
        if not is_far:
            assert all(r.depth > region.depth for r in inside)
        assert_allclose(sum(r.area for r in inside), region.area, rtol=1e-12)


def _refine_region_by_region(regions, target, threshold, max_depth):
    """Reference quad-tree: every region's samples mapped on their own.

    Returns the kept regions and the regions visited at each level."""
    out, level, visited = [], list(regions), []
    while level:
        visited.append(level)
        deeper = []
        for region in level:
            samples = region_samples([region], _CURVED.points_at)
            keep = far_mask(samples, target[None, None], threshold)[0, 0]
            if keep or region.depth >= max_depth:
                out.append(region)
            else:
                deeper.extend(region.split())
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
    regions = [
        IntegrationRegion(u0, u1, v0, v1)
        for u0, u1 in zip(cuts_u[:-1], cuts_u[1:])
        for v0, v1 in zip(cuts_v[:-1], cuts_v[1:])
    ]
    targets = np.array(targets)
    # each target refines its own nonempty subset of the regions
    chosen = [
        data.draw(st.lists(st.sampled_from(regions), min_size=1,
                           unique=True).map(
            lambda picked: [r for r in regions if r in picked]))
        for _ in targets
    ]
    pairs = [(k, region) for k, own in enumerate(chosen) for region in own]
    # interleave the sources: the output is still grouped by source
    pairs = [pairs[i] for i in data.draw(st.permutations(range(len(pairs))))]
    pairs.sort(key=lambda pair: chosen[pair[0]].index(pair[1]))
    calls = []

    def point_fn(params):
        calls.append(len(params))
        return _CURVED.points_at(params)

    out = quadtree_refine(pairs, targets, point_fn, threshold=threshold,
                          max_depth=3)
    assert [k for k, _ in out] == sorted(k for k, _ in out)
    levels = []
    for k, target in enumerate(targets):
        expected, visited = _refine_region_by_region(chosen[k], target,
                                                     threshold, 3)
        assert [region for j, region in out if j == k] == expected
        for depth, level in enumerate(visited):
            if depth == len(levels):
                levels.append(set())
            levels[depth].update(level)
    assert calls == [9 * len(level) for level in levels]
