"""Collocation merging, system assembly, free-term closure."""
import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import gibem.assembly
import gibem.quadrature

from gibem.assembly import (
    COARSE_ORDER,
    assemble,
    collocation_points,
    free_term_rigid_body,
    _PatchContext,
    _Rows,
    _engine,
)
from gibem.errors import (
    CollocationMismatchWarning,
    ParameterDomainError,
    QuadratureError,
    UnsupportedModelError,
)
from gibem.geometry import (
    NurbsPatch,
    TrimmedPatch,
    TrimmingCurve,
    straight_trim_pair,
)
from gibem.kernels import Material, kelvin_T_many
from gibem.model import (
    BoundaryModel,
    FieldSpacePair,
    LoadState,
    SolverConfig,
    build_cube_model,
    build_trimmed_cube_model,
    symmetry_group,
)
from gibem.quadrature import (
    PAIR,
    contains_mask,
    far_mask,
    gauss_points,
    gauss_rule,
    quadtree_refine,
    region_partition,
    region_samples,
    split,
)
from gibem.splines import BasisSpace, unit_interval_space


def flat_square(x0=0.0, y0=0.0, z0=0.0):
    controls = np.array(
        [
            [[x0, y0, z0], [x0, y0 + 1.0, z0]],
            [[x0 + 1.0, y0, z0], [x0 + 1.0, y0 + 1.0, z0]],
        ]
    )
    return NurbsPatch(
        unit_interval_space(1), unit_interval_space(1), controls,
        np.ones((2, 2)),
    )


def single_patch_model(order=2, patch=None):
    patch = patch if patch is not None else flat_square()
    return BoundaryModel(
        (patch,),
        (FieldSpacePair.from_orders(order),),
        Material(1000.0, 0.0),
        closed=False,
    )


def alias_count(colloc, n):
    """Number of Greville points, over all patches, merged into node n."""
    return sum(np.count_nonzero(grid == n) for grid in colloc.grids)


class TestCollocation:
    def test_single_patch_grid(self):
        colloc = collocation_points(single_patch_model(order=2))
        assert len(colloc) == 9
        grev = [0.0, 0.5, 1.0]
        expected = {(u, v) for u in grev for v in grev}
        got = {(round(p[0], 12), round(p[1], 12))
               for p in colloc.positions[:, :2]}
        assert got == expected
        assert colloc.grids[0].shape == (3, 3)
        assert not colloc.positions.flags.writeable

    def test_linear_fields_collocate_at_corners(self):
        colloc = collocation_points(single_patch_model(order=1))
        assert len(colloc) == 4

    def test_shared_edge_merges(self):
        model = BoundaryModel(
            (flat_square(0.0), flat_square(1.0)),
            (FieldSpacePair.from_orders(2),) * 2,
            Material(1000.0, 0.0),
            closed=False,
        )
        colloc = collocation_points(model)
        assert len(colloc) == 15
        shared = np.intersect1d(colloc.grids[0], colloc.grids[1])
        assert len(shared) == 3
        for n in shared:
            assert colloc.positions[n, 0] == pytest.approx(1.0)
            assert [np.count_nonzero(g == n) for g in colloc.grids] == [1, 1]

    def test_cube_node_counts(self):
        for order, expected in ((2, 26), (3, 56), (4, 98)):
            colloc = collocation_points(build_cube_model(order=order))
            assert len(colloc) == len(colloc.positions) == expected
            assert colloc.positions.shape == (expected, 3)

    def test_chain_merge_is_transitive(self):
        # three copies of a patch, each shifted by 0.8 tolerance: neighbors
        # merge directly, the outer pair only through the middle one
        cfg = SolverConfig(merge_tol=1e-6)
        shift = 0.8e-6
        model = BoundaryModel(
            tuple(flat_square(i * shift) for i in range(3)),
            (FieldSpacePair.from_orders(1),) * 3,
            Material(1000.0, 0.0),
            closed=False,
            config=cfg,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            colloc = collocation_points(model)
        assert len(colloc) == 4
        for grid in colloc.grids:
            assert_array_equal(np.sort(grid.ravel()), np.arange(4))

    def test_near_miss_warns(self):
        cfg = SolverConfig(merge_tol=1e-6)
        model = BoundaryModel(
            (flat_square(0.0), flat_square(1.0 + 3e-6)),
            (FieldSpacePair.from_orders(2),) * 2,
            Material(1000.0, 0.0),
            closed=False,
            config=cfg,
        )
        with pytest.warns(CollocationMismatchWarning):
            colloc = collocation_points(model)
        assert len(colloc) == 18

    def test_node_numbering_follows_first_appearance(self):
        model = build_trimmed_cube_model(3, 0.49)
        colloc = collocation_points(model)
        grids = [pair.greville_params() for pair in model.field_pairs]
        points = [patch.points_at(grid)
                  for patch, grid in zip(model.patches, grids)]
        for grid, pair in zip(colloc.grids, model.field_pairs):
            assert grid.shape == (pair.n_u, pair.n_v)
        node_of = np.concatenate([g.ravel() for g in colloc.grids])
        first_seen = list(dict.fromkeys(node_of.tolist()))
        assert first_seen == list(range(len(colloc)))
        mapped = np.concatenate(points)
        for n in range(len(colloc)):
            group = np.flatnonzero(node_of == n)
            # every member of a node lies within the merge tolerance of
            # another one, and the node sits at their mean
            if len(group) > 1:
                gaps = np.linalg.norm(
                    mapped[group, None] - mapped[None, group], axis=2)
                np.fill_diagonal(gaps, np.inf)
                assert gaps.min(axis=1).max() < colloc.merge_tol
            assert np.array_equal(colloc.positions[n],
                                  mapped[group].mean(axis=0))

    def test_grids_reference_every_node(self):
        colloc = collocation_points(build_cube_model(order=3))
        seen = np.unique(np.concatenate(
            [g.ravel() for g in colloc.grids]
        ))
        assert_allclose(seen, np.arange(len(colloc)))


@pytest.fixture(scope="module")
def cube_system():
    model = build_cube_model(order=2)
    colloc = collocation_points(model)
    return model, colloc, assemble(model, colloc)


class TestCubeAssembly:
    def test_rigid_translation_rows_vanish(self, cube_system):
        model, colloc, (matrix, _) = cube_system
        n = len(colloc)
        for direction in range(3):
            const = np.zeros(3 * n)
            const[direction::3] = 1.0
            assert np.abs(matrix @ const).max() < 1e-10

    def test_face_center_free_term_is_half(self, cube_system):
        model, colloc, _ = cube_system
        t_blocks, row_sums, _ = _engine(model, colloc)
        matrix = free_term_rigid_body(t_blocks, row_sums, colloc.node_values)
        for n in range(len(colloc)):
            if alias_count(colloc, n) == 1:
                assert_allclose(-row_sums[n], 0.5 * np.eye(3), atol=1e-5)
                break
        else:
            pytest.fail("no face-interior node found")
        assert matrix.shape == (78, 78)

    def test_corner_free_term_differs_from_half(self, cube_system):
        model, colloc, _ = cube_system
        _, row_sums, _ = _engine(model, colloc)
        corner = next(
            n for n in range(len(colloc))
            if alias_count(colloc, n) == 3
            and np.allclose(np.abs(colloc.positions[n] - 0.5), 0.5)
        )
        assert np.abs(-row_sums[corner] - 0.5 * np.eye(3)).max() > 0.05

    def test_assembly_is_deterministic(self, cube_system):
        model, colloc, (matrix, rhs) = cube_system
        again_matrix, again_rhs = assemble(model, colloc)
        assert np.array_equal(matrix, again_matrix)
        assert np.array_equal(rhs, again_rhs)


def test_open_model_refuses_closure():
    with pytest.raises(UnsupportedModelError):
        assemble(single_patch_model())


def test_zero_stress_gives_zero_rhs():
    model = build_cube_model(order=2, load=LoadState(np.zeros(6)))
    assert_allclose(assemble(model)[1], 0.0, atol=0)


def test_identity_trim_leaves_system_unchanged():
    plain = build_cube_model(order=2)
    faces = list(plain.patches)
    faces[1] = TrimmedPatch(faces[1], *straight_trim_pair(0.0, 1.0))
    trimmed = BoundaryModel(
        tuple(faces), plain.field_pairs, plain.material, load=plain.load,
    )
    ref_matrix, ref_rhs = assemble(plain)
    alt_matrix, alt_rhs = assemble(trimmed)
    assert np.abs(ref_matrix - alt_matrix).max() < 1e-10
    assert np.abs(ref_rhs - alt_rhs).max() < 1e-10


def test_exterior_closure_maps_constants_to_themselves():
    from dataclasses import replace

    plain = build_cube_model(order=2)
    flipped = tuple(replace(p, flip_normal=True) for p in plain.patches)
    model = BoundaryModel(
        flipped, plain.field_pairs, Material(1000.0, 0.25), exterior=True,
    )
    matrix, _ = assemble(model)
    for direction in range(3):
        const = np.zeros(len(matrix))
        const[direction::3] = 1.0
        assert_allclose(matrix @ const, const, atol=1e-12)


def test_engine_holds_one_patch_context_at_a_time(monkeypatch):
    model = build_trimmed_cube_model(2, 0.4)
    colloc = collocation_points(model)
    contexts, alive = [], []
    init = _PatchContext.__init__

    def counting_init(self, *args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in contexts))
        init(self, *args)
        contexts.append(weakref.ref(self))

    monkeypatch.setattr(_PatchContext, "__init__", counting_init)
    _engine(model, colloc)
    assert alive == [0] * len(model.patches)


def test_base_regions_are_held_only_in_the_far_batch():
    model = build_trimmed_cube_model(3, 0.4)
    ctx = _PatchContext(model.patches[1], model.field_pairs[1], model.config)
    # the Greville batch is each base region's own Gauss data, region after
    # region; ``base`` holds views of it, and evaluate hands out views of
    # one shared batch for the refined regions, each evaluated once
    points = ctx.rule.order**2
    pairs = np.zeros(2, PAIR)
    pairs["bounds"] = ctx.regions[[0, -1]]
    # base region 0's quarters and those of the last one's first quarter
    refined = np.concatenate(
        [split(pairs[:1]), split(split(pairs[1:])[:1])])["bounds"]
    data = ctx.evaluate(np.concatenate([refined, refined[::2]]))
    assert len(data) == len(refined) + len(refined[::2])
    assert data[0][2].base.size == len(refined) * points
    for k in range(0, len(refined), 2):
        assert all(got is want for got, want
                   in zip(data[len(refined) + k // 2], data[k], strict=True))
    for k, region in enumerate(np.concatenate([ctx.regions, refined])):
        positions, normals, weights, basis = ctx._columns(
            *gauss_points(region, ctx.rule))
        for column, want, far, shared in zip(
                ctx.base[k] if k < len(ctx.regions)
                else data[k - len(ctx.regions)],
                (positions, normals, weights, weights[:, None] * basis),
                ctx.greville, data[0], strict=True):
            assert np.array_equal(column, want)
            if k < len(ctx.regions):
                assert np.array_equal(far[k * points:(k + 1) * points], want)
                assert np.shares_memory(column, far)
            else:
                assert np.shares_memory(column, shared.base)
                assert not np.shares_memory(column, far)
    assert len(ctx.greville[0]) == len(ctx.regions) * points
    # the whole-patch batch is the unit square as one region
    positions, normals, weights, basis = ctx._columns(
        *gauss_points((0.0, 0.0, 1.0, 1.0), gauss_rule(COARSE_ORDER)))
    for column, far in zip((positions, normals, weights,
                            weights[:, None] * basis), ctx.whole, strict=True):
        assert np.array_equal(column, far)


class TestSplitSingular:
    """``quadtree_refine`` separating one row's singular parameters, its
    source far above the flat unit square, so every region holding none
    is kept as soon as it holds none."""

    # two base regions side by side; together they cover [0, 1] x [0.25, 1]
    PAIRS = np.zeros(2, PAIR)
    PAIRS["base"] = 0, 1
    PAIRS["bounds"] = (0.0, 0.25, 0.5, 1.0), (0.5, 0.25, 1.0, 1.0)

    @staticmethod
    def refine(pairs, params):
        """The fans' bounds and singular parameters, and the other kept
        records."""
        kept = quadtree_refine(pairs, [(0.5, 0.5, 1e6)],
                               np.reshape(params, (1, -1, 2)),
                               flat_square().points_at)
        fan = ~np.isnan(kept["fan"][:, 0])
        return kept["bounds"][fan], kept["fan"][fan], kept[~fan]

    @pytest.mark.parametrize("params", [
        [(0.1, 0.3), (0.4, 0.9)],
        [(0.0, 0.25), (0.01, 0.26)],  # a corner and a point close to it
        # on split lines and on the shared edge: in several regions each
        [(0.25, 0.625), (0.25, 0.5), (0.5, 1.0)],
    ])
    def test_each_parameter_gets_its_own_regions(self, params):
        params = np.array(params)
        given = self.PAIRS.copy()
        fans, sources, regular = self.refine(given, params)
        assert_array_equal(given, self.PAIRS)  # the input is left alone
        for region, source in zip(fans, sources, strict=True):
            assert_array_equal(params[contains_mask(params, region)],
                               [source])
        assert {*map(tuple, sources)} == {*map(tuple, params)}
        assert not contains_mask(params, regular["bounds"][:, None]).any()
        # a record keeps its base region, and depth 0 only when it is one
        unsplit = (regular["bounds"] == self.PAIRS["bounds"][regular["base"]])
        assert_array_equal(regular["depth"] == 0, unsplit.all(axis=1))

        pieces = np.concatenate([regular["bounds"], fans])
        assert len(np.unique(pieces, axis=0)) == len(pieces)
        u0, v0, u1, v1 = pieces.T
        assert (0.0 <= u0).all() and (u1 <= 1.0).all()
        assert (0.25 <= v0).all() and (v1 <= 1.0).all()
        for k, a in enumerate(pieces):
            for b in pieces[k + 1:]:
                overlap_u = min(a[2], b[2]) - max(a[0], b[0])
                overlap_v = min(a[3], b[3]) - max(a[1], b[1])
                assert overlap_u <= 0 or overlap_v <= 0
        assert_allclose(((u1 - u0) * (v1 - v0)).sum(), 0.75, rtol=1e-14)

    def test_coincident_parameters_raise(self, monkeypatch):
        """Level by level, parameters no region can part would be split
        into ever more regions; they raise while few have been split."""
        records = []
        split = gibem.quadrature.split

        def counting_split(pairs):
            records.append(len(pairs))
            return split(pairs)

        monkeypatch.setattr(gibem.quadrature, "split", counting_split)
        for params in ([(0.2, 0.4), (0.2, 0.4)], [(0.5, 0.5), (0.5, 0.5)],
                       [(0.3, 0.6), (0.3 + 1e-10, 0.6)]):
            records.clear()
            with pytest.raises(QuadratureError):
                self.refine(self.PAIRS[:1], params)
            assert 0 < sum(records) < 1000


@pytest.mark.parametrize("height, max_depth", [(0.0, 1), (5.0, 6)])
def test_plan_keeps_split_regions_out_of_the_base_mask(height, max_depth,
                                                       monkeypatch):
    """A row with three singular parameters in the one base region of a
    unit square: two in its low quarter, one in its high quarter. The
    quad-tree splits the base region until each fan holds one; the regular
    pieces, at depths 1 to 3, stay whole there, at the depth cap 1 for a
    target on the patch and as far regions for one 5 above it. Kept at
    depth >= 1, they are the row's refined regions, in level order, and
    the base region, which holds the singular parameters, stays out of the
    base mask. The fans come in level order too: the high one, at depth 1,
    before both low ones, at depth 3."""
    cfg = dataclasses.replace(SolverConfig(), quadtree_max_depth=max_depth)
    ctx = _PatchContext(flat_square(), FieldSpacePair.from_orders(1), cfg)
    assert len(ctx.regions) == 1
    params = np.array([[0.1, 0.1], [0.2, 0.2], [0.8, 0.8]])
    target = np.array([[0.1, 0.1, height]])
    seen = []
    refine = gibem.assembly.quadtree_refine

    def recording_refine(pairs, *args):
        seen.append(pairs.copy())
        return refine(pairs, *args)

    monkeypatch.setattr(gibem.assembly, "quadtree_refine", recording_refine)
    whole, greville, near = gibem.assembly._plan(
        ctx, np.zeros(3, dtype=int), params, np.array([0]), target, cfg, 1e-9)
    assert not whole.any() and not greville.any() and list(near) == [0]
    fans, sources, base, refined = near[0]
    assert_array_equal(sources, params[[2, 0, 1]])
    assert_array_equal(fans, [(0.5, 0.5, 1.0, 1.0),
                              (0.0, 0.0, 0.125, 0.125),
                              (0.125, 0.125, 0.25, 0.25)])
    assert_array_equal(base, [False])
    [pairs] = seen
    assert_array_equal(pairs["bounds"], ctx.regions)
    assert_array_equal(pairs["depth"], [0])
    assert_array_equal(refined, [(0.5, 0.0, 1.0, 0.5),
                                 (0.0, 0.5, 0.5, 1.0),
                                 (0.25, 0.0, 0.5, 0.25),
                                 (0.0, 0.25, 0.25, 0.5),
                                 (0.25, 0.25, 0.5, 0.5),
                                 (0.125, 0.0, 0.25, 0.125),
                                 (0.0, 0.125, 0.125, 0.25)])


def test_seam_node_takes_both_of_its_wall_parameters(monkeypatch):
    """The wall of the seam cube closes on itself at u = 0 and u = 1, so
    its grid holds each seam node twice. On the wall, the row of a seam
    node, one image and no projection, takes both of its Greville
    parameters as singular parameters, u = 0 before u = 1, and a fan at
    each."""
    cube = build_cube_model(2)
    ring = np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1], [0, 0]])
    wall = NurbsPatch(
        BasisSpace([0, 0, 0.25, 0.5, 0.75, 1, 1], 1), unit_interval_space(1),
        np.stack([np.column_stack([ring, np.full(5, z)]) for z in (0.0, 1.0)],
                 axis=1), np.ones((5, 2)))
    field = FieldSpacePair.from_orders(
        2, interior_u=np.repeat([0.25, 0.5, 0.75], 2))
    model = dataclasses.replace(cube, patches=cube.patches[:2] + (wall,),
                                field_pairs=cube.field_pairs[:2] + (field,))
    colloc = collocation_points(model)
    grid = colloc.grids[2]
    seam = grid[0]
    assert_array_equal(grid[-1], seam)
    greville = field.greville_params().reshape(*grid.shape, 2)
    expected = np.stack([greville[0], greville[-1]], axis=1)
    tables, plans = [], []
    refine, plan = gibem.assembly.quadtree_refine, gibem.assembly._plan

    def recording_refine(pairs, sources, params, *args):
        tables.append(params)
        return refine(pairs, sources, params, *args)

    def recording_plan(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(gibem.assembly, "quadtree_refine", recording_refine)
    monkeypatch.setattr(gibem.assembly, "_plan", recording_plan)
    _engine(model, colloc)
    # no mirror planes: row t is node t
    assert_array_equal(tables[2][seam], expected)
    near = plans[2][2]
    for t, params in zip(seam, expected):
        assert_array_equal(np.unique(near[t][1], axis=0),
                           np.unique(params, axis=0))


def trimmed_bulged_model():
    """The order-3 cube with its top face split at 0.4 into two trimmed
    patches, whose base face bulges to z = 1.3 with centre weight 0.8."""
    net = np.array([[[i / 2, j / 2, 1.0] for j in range(3)]
                    for i in range(3)])
    net[1, 1, 2] = 1.3
    weights = np.ones((3, 3))
    weights[1, 1] = 0.8
    space = unit_interval_space(2)
    bulged = NurbsPatch(space, space, net, weights)
    model = build_trimmed_cube_model(3, 0.4)
    patches = list(model.patches)
    patches[1:3] = [dataclasses.replace(p, base=bulged) for p in patches[1:3]]
    return dataclasses.replace(model, patches=tuple(patches))


class _CountingPatch:
    """A patch that counts ``frames_at`` calls, one per Gauss-Newton step."""

    def __init__(self, patch):
        self.patch = patch
        self.calls = 0

    def frames_at(self, params):
        self.calls += 1
        return self.patch.frames_at(params)

    def points_at(self, params):
        return self.patch.points_at(params)


class _ParallelAt:
    """A patch whose v tangent equals its u tangent at one parameter."""

    def __init__(self, patch, param):
        self.patch = patch
        self.param = param

    def frames_at(self, params):
        frames = self.patch.frames_at(params)
        bad = np.all(params == self.param, axis=1)[:, None]
        return dataclasses.replace(frames, tangents_v=np.where(
            bad, frames.tangents_u, frames.tangents_v))

    def points_at(self, params):
        return self.patch.points_at(params)


def _one_row_inversion(patch, target, param):
    """Reference Gauss-Newton point inversion of one target, with scalar
    dot products; a singular normal system stops it where it is."""
    for _ in range(50):
        frame = patch.frames_at(param[None])
        tan_u, tan_v = frame.tangents_u[0], frame.tangents_v[0]
        res = frame.positions[0] - target
        grad = np.array([res @ tan_u, res @ tan_v])
        hess = np.array([[tan_u @ tan_u, tan_u @ tan_v],
                         [tan_u @ tan_v, tan_v @ tan_v]])
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        new = np.clip(param + step, 0.0, 1.0)
        moved = np.abs(new - param).max()
        param = new
        if moved < 1e-14:
            break
    return param


class TestProjection:
    def test_rows_match_one_row_projection(self):
        model = trimmed_bulged_model()
        ctx = _PatchContext(model.patches[2], model.field_pairs[2],
                            model.config)
        positions = collocation_points(model).positions
        # every node, nodes lifted off the faces, and one far point
        targets = np.concatenate([positions, positions + [0.05, -0.03, 0.1],
                                  [[5.0, 5.0, 5.0]]])
        params, dist = ctx.project(targets)
        d2 = ((ctx.seed_positions[None] - targets[:, None]) ** 2).sum(2)
        seeds = ctx.seed_params[d2.argmin(1)]
        assert np.isinf(dist[-1]) and np.isnan(params[-1]).all()
        ctx.patch = _CountingPatch(ctx.patch)
        steps = set()
        for target, param, d, seed in zip(targets, params, dist, seeds):
            ctx.patch.calls = 0
            one_param, one_dist = ctx.project(target[None])
            steps.add(ctx.patch.calls)
            assert_array_equal(one_param[0], param)
            assert np.array_equal(one_dist[0], d)
            if np.isfinite(d):
                assert np.array_equal(
                    _one_row_inversion(ctx.patch, target, seed), param)
        assert {1, 2, 7} <= steps
        on_patch = dist < 1e-9
        assert on_patch.any() and not on_patch.all()

    def test_singular_normal_system_keeps_its_seed(self):
        model = single_patch_model()
        ctx = _PatchContext(model.patches[0], model.field_pairs[0],
                            model.config)
        # the flat square maps (u, v) to (u, v, 0); seed points lie 1/16 apart
        ctx.patch = _ParallelAt(ctx.patch, [0.5, 0.5])
        targets = np.array([[0.27, 0.71, 0.1], [0.51, 0.5, 0.1],
                            [0.9, 0.15, -0.05]])
        params, dist = ctx.project(targets)
        assert np.array_equal(params[1], [0.5, 0.5])
        assert_allclose(dist[1], np.hypot(0.01, 0.1), rtol=1e-14)
        assert_allclose(params[[0, 2]], targets[[0, 2], :2], atol=1e-15)
        assert_allclose(dist[[0, 2]], [0.1, 0.05], rtol=1e-14)


@pytest.fixture(scope="module")
def octant_system():
    """Order-2 mirror octant of [-1, 1]^3 whose top face is split at 0.4."""
    load = LoadState(np.array([1.0, -0.5, 0.8, 0.0, 0.0, 0.0]))
    cube = build_trimmed_cube_model(2, 0.4, Material(1000.0, 0.3), load)
    keep = (1, 2, 3, 5)  # both top-face halves, x = 1 and y = 1
    model = BoundaryModel(
        tuple(cube.patches[k] for k in keep),
        tuple(cube.field_pairs[k] for k in keep),
        cube.material,
        load=load,
        symmetry_planes=("xy", "xz", "yz"),
    )
    colloc = collocation_points(model)
    return model, colloc, assemble(model, colloc)


class TestOctantAssembly:
    def test_far_rows_match_plain_gauss_sum(self, octant_system):
        """Rows of x = 1 face nodes against the trimmed top patch 0.

        Every image of patch 0 is far from those nodes, so each base region
        is integrated with the plain tensor Gauss rule. Columns of nodes
        that only patch 0 holds get no other patch's integral and no
        free-term closure.
        """
        model, colloc, (matrix, _) = octant_system
        k = 0
        patch, pair = model.patches[k], model.field_pairs[k]
        grid = colloc.grids[k].ravel()
        others = np.concatenate(
            [g.ravel() for j, g in enumerate(colloc.grids) if j != k]
        )
        columns = [f for f, c in enumerate(grid) if c not in others]
        rows = [n for n in range(len(colloc))
                if [j for j, g in enumerate(colloc.grids) if n in g] == [2]]
        assert len(columns) == 5 and len(rows) == 4

        regions = region_partition(pair.space_u, pair.space_v)
        corners = [patch.points_at(np.array([[u0, v0], [u1, v0],
                                             [u1, v1], [u0, v1]]))
                   for u0, v0, u1, v1 in regions]
        longest = max(np.linalg.norm(c - np.roll(c, 1, axis=0), axis=1).max()
                      for c in corners)
        side = np.linspace(0.0, 1.0, 33)
        dense = patch.points_at(
            np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
        )
        rule = gauss_rule(model.config.gauss_order)
        for n in rows:
            source = colloc.positions[n]
            expected = np.zeros((len(grid), 3, 3))
            for mirror in symmetry_group(model.symmetry_planes):
                gap = np.linalg.norm(dense @ mirror.T - source, axis=1).min()
                assert gap > 1.5 * longest
                for region in regions:
                    params, wts = gauss_points(region, rule)
                    frames = patch.frames_at(params)
                    kernel = kelvin_T_many(
                        (frames.positions @ mirror.T - source).T,
                        (frames.normals @ mirror.T).T, model.material,
                    )
                    expected += np.einsum(
                        "m,ijm,mf->fij", wts * frames.areas, kernel,
                        pair.values(params),
                    ) @ mirror
            got = np.array([
                matrix[3 * n:3 * n + 3, 3 * c:3 * c + 3]
                for c in grid[columns]
            ])
            scale = np.abs(expected[columns]).max()
            assert np.abs(got - expected[columns]).max() <= 1e-12 * scale

    def test_assembly_is_deterministic(self, octant_system):
        model, colloc, (matrix, rhs) = octant_system
        again_matrix, again_rhs = assemble(model, colloc)
        assert np.array_equal(matrix, again_matrix)
        assert np.array_equal(rhs, again_rhs)

    def test_each_distinct_target_reaches_the_kernel_once(self, octant_system,
                                                          monkeypatch):
        """A node on a mirror plane has the same target under two images.
        Per patch, each (node, target) row is integrated once, either as a
        near row or in one far batch, through the target ``integrate``
        receives. A row is far exactly when every base region is far from
        it; it takes the whole patch at COARSE_ORDER when the whole patch
        passes the keep test as one region, else the base regions at
        gauss_order. The far kernel pairs are the sum, over the far
        targets, of the points of the target's batch."""
        model, colloc, _ = octant_system
        group = symmetry_group(model.symmetry_planes)
        distinct = {(n, tuple(x @ mirror.T))
                    for n, x in enumerate(colloc.positions) for mirror in group}
        assert len(distinct) < len(colloc) * len(group)
        rows_of = {}  # each target's (node, target) rows
        for n, target in distinct:
            rows_of.setdefault(target, []).append((n, target))
        contexts, calls = [], []
        init, integrate = _PatchContext.__init__, _Rows.integrate

        def counting_init(self, *args):
            init(self, *args)
            contexts.append(self)

        def recording_integrate(self, targets, *args):
            ctx = contexts[-1]
            kind = next((whole for whole, columns
                         in ((True, ctx.whole), (False, ctx.greville))
                         if columns is not None and columns[0] is args[0]),
                        "near")
            calls.append([len(contexts) - 1, kind,
                          [row for target in targets
                           for row in rows_of[tuple(target)]],
                          len(args[0])])
            return integrate(self, targets, *args)

        def counting_kernel(diff, normals, material):
            calls[-1].append(np.broadcast(*diff, *normals).size)
            return kelvin_T_many(diff, normals, material)

        monkeypatch.setattr(_PatchContext, "__init__", counting_init)
        monkeypatch.setattr(_Rows, "integrate", recording_integrate)
        monkeypatch.setattr("gibem.assembly.kelvin_T_many", counting_kernel)
        _engine(model, colloc)

        assert len(contexts) == len(model.patches)
        threshold = model.config.quadtree_threshold
        base_points = model.config.gauss_order**2
        kinds = []
        for k, ctx in enumerate(contexts):
            rows = {}
            for near in (True, False):
                rows[near] = [row for patch, kind, targets, *_ in calls
                              if (patch, kind == "near") == (k, near)
                              for row in targets]
                assert len(rows[near]) == len(set(rows[near]))
            assert not set(rows[True]) & set(rows[False])
            assert set(rows[True]) | set(rows[False]) == distinct
            whole_samples = region_samples(
                (0.0, 0.0, 1.0, 1.0), ctx.patch.points_at)[0]
            expected = {}
            for n, target in distinct:
                keep = far_mask(ctx.samples, np.array(target), threshold)
                if keep.all() and far_mask(whole_samples, np.array(target),
                                           threshold):
                    expected[n, target] = True, COARSE_ORDER**2
                elif keep.all():
                    expected[n, target] = False, len(keep) * base_points
            seen = {row: (kind, points)
                    for patch, kind, targets, points, _ in calls
                    if patch == k and kind != "near" for row in targets}
            assert seen == expected
            far_pairs = sum(pairs for patch, kind, *_, pairs in calls
                            if patch == k and kind != "near")
            assert far_pairs == sum(points for _, points in expected.values())
            kinds += [kind for kind, _ in expected.values()]
        assert True in kinds and False in kinds


@pytest.mark.parametrize("order", [2, 5])
def test_whole_patch_rows_match_an_order_20_batch(order, monkeypatch):
    """Rows that take the whole patch at COARSE_ORDER are at round-off
    from the same rows at order 20."""
    model = build_cube_model(order=order)
    colloc = collocation_points(model)
    coarse = assemble(model, colloc)
    monkeypatch.setattr("gibem.assembly.COARSE_ORDER", 20)
    fine = assemble(model, colloc)
    assert not np.array_equal(coarse[0], fine[0])
    for got, want in zip(coarse, fine):
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


def test_knots_inside_a_patch_keep_it_from_the_whole_patch_batch(
        monkeypatch):
    """The top face's field has an interior knot and the wall's base
    surface and field have them at the seams: neither builds a whole-patch
    batch. The bottom face, one smooth piece, does."""
    cube = build_cube_model(3)
    ring = np.array([[0.0, 0.0], [1, 0], [1, 1], [0, 1], [0, 0]])
    wall = NurbsPatch(
        BasisSpace([0, 0, 0.25, 0.5, 0.75, 1, 1], 1), unit_interval_space(1),
        np.stack([np.column_stack([ring, np.full(5, z)]) for z in (0.0, 1.0)],
                 axis=1), np.ones((5, 2)))
    fields = (cube.field_pairs[0],
              FieldSpacePair.from_orders(3, interior_u=(0.5,)),
              FieldSpacePair.from_orders(
                  3, interior_u=np.repeat([0.25, 0.5, 0.75], 3)))
    model = dataclasses.replace(cube, patches=cube.patches[:2] + (wall,),
                                field_pairs=fields)
    contexts = []
    init = _PatchContext.__init__

    def recording_init(self, *args):
        init(self, *args)
        contexts.append(self)

    monkeypatch.setattr(_PatchContext, "__init__", recording_init)
    _engine(model, collocation_points(model))
    assert [ctx.patch for ctx in contexts] == list(model.patches)
    assert [ctx.whole is None for ctx in contexts] == [False, True, True]


def _rotated(patch):
    """``patch`` turned by Rz(0.3) Ry(0.7) Rx(1.1): no normal or edge lies
    along an axis."""
    turn = np.eye(3)
    for axis, angle in ((2, 0.3), (1, 0.7), (0, 1.1)):
        i, j = [k for k in range(3) if k != axis]
        step = np.eye(3)
        step[[i, i, j, j], [i, j, i, j]] = (np.cos(angle), -np.sin(angle),
                                            np.sin(angle), np.cos(angle))
        turn = turn @ step
    return dataclasses.replace(patch,
                               control_points=patch.control_points @ turn.T)


def _affine_patches():
    """The six cube faces, the two straight trimmed halves of the top face,
    a rotated face and a face with a flipped normal."""
    cube = build_cube_model(2)
    halves = build_trimmed_cube_model(2, 0.4).patches[1:3]
    face = cube.patches[0]
    return cube.patches + halves + (
        _rotated(face), dataclasses.replace(face, flip_normal=True))


def _draw_params(rng, n):
    return np.vstack([[[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]],
                      rng.random((n - 3, 2))])


def test_fans_go_radially_at_p_plus_one_only_on_smooth_affine_patches():
    """A fan's radial order is p + 1, p the larger field degree, capped at
    singular_gauss_order, on a patch that no interior knot cuts and whose
    map is affine: the cube faces, the straight trimmed halves and a rotated
    or flipped face. The same test sets ``affine``, from which ``_columns``
    takes positions, normals and area elements that match ``frames_at`` to
    1e-14. The bulged face, a face trimmed along a quadratic curve, a flat
    trapezoid (bilinear, not affine) and an h-refined field keep
    singular_gauss_order and no ``affine``."""
    def context(patch, pair, cfg=SolverConfig()):
        return _PatchContext(patch, pair, cfg)

    rng = np.random.default_rng(7)
    params, weights = _draw_params(rng, 40), rng.random(40)
    for patch in _affine_patches():
        for p in (1, 2, 3, 5):
            ctx = context(patch, FieldSpacePair.from_orders(p))
            assert ctx.radial_rule.order == p + 1
            assert ctx.affine is not None
        positions, normals, scaled, values = ctx._columns(params, weights)
        frames = patch.frames_at(params)
        assert np.abs(positions - frames.positions).max() \
            <= 1e-14 * np.abs(frames.positions).max()
        assert np.abs(normals - frames.normals).max() <= 1e-14
        assert_allclose(scaled, weights * frames.areas, rtol=1e-14, atol=0)
        assert_array_equal(values, ctx.pair.values(params))
    face = build_cube_model(2).patches[0]
    assert context(face, FieldSpacePair.from_orders(2, 4)).radial_rule.order \
        == 5
    assert context(face, FieldSpacePair.from_orders(5),
                   SolverConfig(singular_gauss_order=4)).radial_rule.order \
        == 4
    line = TrimmingCurve(unit_interval_space(1),
                         np.array([[0.0, 0.0], [0.0, 1.0]]))
    curve = TrimmingCurve(unit_interval_space(2),
                          np.array([[0.4, 0.0], [0.6, 0.5], [0.4, 1.0]]))
    trapezoid = NurbsPatch(
        unit_interval_space(1), unit_interval_space(1),
        np.array([[[0.0, 0, 0], [0, 1, 0]], [[1, 0, 0], [0.5, 1, 0]]]),
        np.ones((2, 2)))
    order3 = FieldSpacePair.from_orders(3)
    for patch, pair in (
            (trimmed_bulged_model().patches[1].base, order3),
            (TrimmedPatch(face, line, curve), order3),
            (trapezoid, order3),
            (face, FieldSpacePair.from_orders(3, interior_u=(0.5,)))):
        ctx = context(patch, pair)
        assert ctx.radial_rule.order == SolverConfig().singular_gauss_order
        assert ctx.affine is None


@pytest.mark.parametrize("index", [1, 6, 8])
def test_affine_columns_do_not_depend_on_the_batch(index):
    """On an affine patch (a trimmed half, a cube face, a rotated face) the
    Gauss data of two parameter sets evaluated together equals that of the
    two evaluated apart, bit for bit."""
    patch = _affine_patches()[index]
    ctx = _PatchContext(patch, FieldSpacePair.from_orders(3), SolverConfig())
    assert ctx.affine is not None
    rng = np.random.default_rng(index)
    params = [_draw_params(rng, 7), rng.random((50, 2))]
    weights = [rng.random(7), rng.random(50)]
    together = ctx._columns(np.concatenate(params), np.concatenate(weights))
    apart = [ctx._columns(*args) for args in zip(params, weights)]
    for got, *parts in zip(together, *apart, strict=True):
        assert_array_equal(got, np.concatenate(parts))


@pytest.mark.parametrize("bad", [(0.5, 1.5), (-0.25, 0.5), (np.nan, 0.5)])
def test_affine_columns_reject_parameters_off_the_patch(bad):
    """An affine patch builds its Gauss data without evaluating the surface,
    so the basis values are what reject a parameter outside [0, 1]."""
    ctx = _PatchContext(build_cube_model(2).patches[0],
                        FieldSpacePair.from_orders(2), SolverConfig())
    assert ctx.affine is not None
    with pytest.raises(ParameterDomainError):
        ctx._columns(np.array([[0.5, 0.5], bad]), np.ones(2))


def test_far_blocks_keep_to_block_pairs(monkeypatch):
    """A far call of several rows is sized by the batch it integrates: on
    the order-1 cube a whole-patch call counts the whole patch's
    COARSE_ORDER**2 points per row, not its one base region's
    gauss_order**2, which would take all 8 nodes and 4 rows per
    whole-patch call, 784 pairs."""
    model = build_cube_model(1)
    pairs = []

    def counting_kernel(diff, normals, material):
        if diff[0].shape[0] > 1:
            pairs.append(np.broadcast(*diff).size)
        return kelvin_T_many(diff, normals, material)

    monkeypatch.setattr("gibem.assembly.BLOCK_PAIRS", 600)
    monkeypatch.setattr("gibem.assembly.kelvin_T_many", counting_kernel)
    _engine(model, collocation_points(model))
    assert pairs and max(pairs) <= 600


@pytest.mark.parametrize("fixture", ["octant", "cube5"])
def test_engine_plans_each_patch_once(fixture, request, monkeypatch):
    """The loop unit is the patch: one plan and one region evaluation per
    patch, over all its rows."""
    if fixture == "octant":
        model, colloc, _ = request.getfixturevalue("octant_system")
    else:
        model = build_cube_model(5)
        colloc = collocation_points(model)
    calls = []
    init, evaluate = _PatchContext.__init__, _PatchContext.evaluate
    plan = gibem.assembly._plan

    def counting_init(self, *args):
        init(self, *args)
        calls.append([])

    def counting_plan(ctx, *args):
        calls[-1].append("plan")
        return plan(ctx, *args)

    def counting_evaluate(self, *args):
        calls[-1].append("evaluate")
        return evaluate(self, *args)

    monkeypatch.setattr(_PatchContext, "__init__", counting_init)
    monkeypatch.setattr(_PatchContext, "evaluate", counting_evaluate)
    monkeypatch.setattr(gibem.assembly, "_plan", counting_plan)
    _engine(model, colloc)
    assert calls == [["plan", "evaluate"]] * len(model.patches)


def test_near_chunks_keep_to_block_pairs(octant_system, monkeypatch):
    """Near rows evaluate their fans chunk by chunk. A chunk holds at most
    BLOCK_PAIRS (point, row) pairs, a fan counted at its four triangles'
    radial times angular order points on its patch and a region at
    gauss_order**2, and
    goes over only when one row alone does; rows are taken greedily. The
    chunk size does not change a near row's integrals, bit for bit."""
    model, colloc, _ = octant_system
    cfg = model.config
    init, integrate = _PatchContext.__init__, _Rows.integrate
    fans_call, near_chunks = _PatchContext.fans, gibem.assembly._near_chunks

    def run():
        contexts, near, chunks, fan_lists = [], {}, [], []

        def recording_init(self, *args):
            init(self, *args)
            contexts.append(self)

        def recording_chunks(rows, cfg):
            for chunk in near_chunks(rows, cfg):
                chunks.append((len(contexts), [rows[t] for t in chunk]))
                yield chunk

        def recording_fans(self, bounds, sources):
            fan_lists.append((bounds, sources))
            return fans_call(self, bounds, sources)

        def recording_integrate(self, targets, *args):
            ctx = contexts[-1]
            parts = integrate(self, targets, *args)
            if not any(columns is not None and columns[0] is args[0]
                       for columns in (ctx.whole, ctx.greville)):
                key = len(contexts), targets[0].tobytes()
                assert key not in near
                near[key] = parts
            return parts

        monkeypatch.setattr(_PatchContext, "__init__", recording_init)
        monkeypatch.setattr(_PatchContext, "fans", recording_fans)
        monkeypatch.setattr(_Rows, "integrate", recording_integrate)
        monkeypatch.setattr(gibem.assembly, "_near_chunks", recording_chunks)
        _engine(model, colloc)
        monkeypatch.undo()
        # each patch's fan points: four triangles at its radial and angular
        # orders
        fan_points = {k + 1: 4 * ctx.radial_rule.order
                      * ctx.singular_rule.order
                      for k, ctx in enumerate(contexts)}
        return near, chunks, fan_lists, fan_points

    default = run()
    monkeypatch.setattr(gibem.assembly, "BLOCK_PAIRS", 600)
    small = run()

    near = default[0]
    assert small[0].keys() == near.keys()
    for key, parts in small[0].items():
        for got, want in zip(parts, near[key], strict=True):
            assert_array_equal(got, want)
    for bound, (_, chunks, fan_lists, fan_points) in (
            (gibem.assembly.BLOCK_PAIRS, default), (600, small)):
        sizes = [(patch, [fan_points[patch] * len(fans) + cfg.gauss_order**2
                          * (np.count_nonzero(base) + len(refined))
                          for fans, _, base, refined in chunk])
                 for patch, chunk in chunks]
        assert sum(len(chunk) for _, chunk in sizes) == len(near)
        for (patch, chunk), after in zip(sizes, sizes[1:] + [(None, [])]):
            assert sum(chunk) <= bound or len(chunk) == 1
            if after[0] == patch:
                assert sum(chunk) + after[1][0] > bound
        assert len(fan_lists) == len(chunks)
        for got, (_, chunk) in zip(fan_lists, chunks):
            for k, column in enumerate(got):
                assert_array_equal(column, np.concatenate(
                    [row[k] for row in chunk]))
    assert max(len(chunk) for _, chunk in default[1]) > 1
    assert len(small[1]) > len(default[1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_regions=st.integers(1, 6),
       n_sources=st.integers(1, 4), threshold=st.floats(0.0, 4.0))
def test_far_mask_is_the_inline_keep_test(seed, n_regions, n_sources,
                                          threshold):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, (n_regions, 9, 3))
    # sources on sample points too: distance exactly zero
    sources = np.concatenate([rng.uniform(-2.0, 2.0, (n_sources, 3)),
                              samples[0, :1]])[:, None]
    edges = samples[..., [0, 2, 8, 6], :] - samples[..., [2, 8, 6, 0], :]
    size = np.sqrt((edges * edges).sum(axis=-1)).max(axis=-1)
    diff = samples - sources[..., None, :]
    dist = np.sqrt((diff * diff).sum(axis=-1)).min(axis=-1)
    assert_array_equal(far_mask(samples, sources, threshold),
                       size <= threshold * dist)
