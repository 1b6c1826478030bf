"""Collocation, DOF numbering, and dense system assembly.

Each patch contributes a tensor grid of collocation points at the Greville
parameters of its field spaces. Points that coincide in global coordinates
are merged into one node, and the three displacement components of a node
form three consecutive rows/columns of the dense system. The stages pass
plain arrays: a ``CollocationSet`` holds the node positions, node id grids
and nodal basis values, and ``assemble`` returns ``(matrix, rhs)``.

The traction kernel is strongly singular, so rows are built in two parts.
Away from the collocation point the integrand is smooth and handled by
Gauss quadrature on quad-tree refined regions. On patches the point lies
on, the basis value at the point is subtracted from the integrand, which
weakens the singularity enough for the triangle-fan scheme; the subtracted
part is restored through the free-term closure, which fixes each diagonal
block from the requirement that a rigid translation of the (mirror
completed) closed surface produces no traction.

The loop unit is the patch, as in element-by-element collocation assembly
(Beer, Smith & Duenser 2008): each patch plans all its rows, over all
mirror images, with one projection, one region bounds test and one
quad-tree, which cuts every near row's fans and refined regions alike
(``quadrature.quadtree_refine``). A row is far from a patch when it keeps
each base region whole; then its Gauss data is the same as every other far
row's, and the far rows of all images are integrated as a batch: one
kernel block over rows and points, contracted with the weighted basis
values in one matrix product. The Greville regions only put nodes on
region corners for the fans, so a far row, on a patch that passes the same
keep test as one region and that no interior knot cuts, integrates the
whole unit square at COARSE_ORDER instead: the order picked by distance,
after Lachat & Watson (IJNME 1976). Every other row is near and integrated
alone, its far base regions, views of the Greville batch, with the rest;
the quad-tree refined regions of all near rows are evaluated in one frame
and one basis call, their fans chunk by chunk. A patch whose map is
affine (a flat face, a straight trim) takes the positions, normals and
area elements of its Gauss and fan points from that one map instead of
evaluating the surface at each point.
A kernel call or near chunk holds at most BLOCK_PAIRS (point, row) pairs,
so its memory does not grow with the model. Regions travel as rows of
(r, 4) bounds arrays, and through the quad-tree as PAIR records.

A mirror image M, a diagonal reflection with signs s_i = M_ii, only flips
signs: bit for bit, T(M y - x, M n) = M T(y - M x, n) M and, for a load
symmetric about the planes, U(M y - x) t(M n) = M U(y - M x) t(n). So a
row is a target M x, not a node: each distinct target is planned and
integrated once against the unmirrored patch, however many images give it,
and each image adds it with entry (i, j) times s_i s_j and rhs component i
times s_i. A row's singular parameters on a patch are the Greville aliases
there of the node it lies at; a row with none is projected onto the patch.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CollocationMismatchWarning, UnsupportedModelError
from .kernels import kelvin_T_many, kelvin_U_many
from .model import symmetry_group
# quadtree_refine and singular_quadrature_points are called through this
# module's globals, so a wrapper set on gibem.assembly sees every call
from .quadrature import PAIR, contains_mask, far_mask, gauss_points, \
    gauss_rule, quadtree_refine, region_partition, region_samples, \
    singular_quadrature_points

__all__ = [
    "CollocationSet",
    "collocation_points",
    "assemble",
    "node_values",
    "free_term_rigid_body",
]

# (point, row) pairs per kernel call or near chunk, 9 doubles each; a row
# with more Gauss points is taken alone.
BLOCK_PAIRS = 8192

# Gauss order of the whole-patch far batch. Against a far batch at order 20
# its rows agree to 6.6e-16 of the largest matrix entry on the order-2 cube,
# the order-2 trimmed cube, cube-far and octant-trim; order 12 gives 2.2e-14
# to 1.6e-13, so 14 is the lowest order at round-off.
COARSE_ORDER = 14


@dataclass(frozen=True, eq=False)
class CollocationSet:
    """Merged collocation nodes.

    ``positions`` (n, 3), read-only, holds each node's mean point.
    ``grids[k]`` is the (n_u, n_v) grid of node ids at patch k's Greville
    parameters, flat index a * n_v + b, twice a node where the patch closes
    on itself. A node's aliases are the Greville points whose grid entry is
    that node; the first of them in flat (patch, index) order is its owner.
    ``node_values``, read-only, is ``node_values(model, grids)``.
    """

    positions: np.ndarray
    grids: tuple
    merge_tol: float
    node_values: np.ndarray

    def __len__(self):
        return len(self.positions)

    # the names ``perfbench/tests/check_bench.py`` reads
    dof_map = property(lambda self: self)
    n_dof = property(lambda self: 3 * len(self.positions))


def collocation_points(model):
    """Greville collocation grid of every patch, merged across patches.

    Points closer than the merge tolerance, directly or through a chain of
    such points, become one node. Nodes are numbered in the order of their
    first point in the flat (patch, Greville index) order, and that point is
    the node's owner. The nodal basis values are built here, once per set.
    """
    tol = model.config.resolved_merge_tol(model.bbox_diagonal())
    positions = np.concatenate([
        patch.points_at(pair.greville_params())
        for patch, pair in zip(model.patches, model.field_pairs)
    ])

    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    close = dist < tol
    # each point ends up labelled by the smallest index of its group
    label = np.arange(len(positions))
    while True:
        spread = np.where(close, label, len(label)).min(axis=1)
        if np.array_equal(spread, label):
            break
        label = spread

    near = (dist >= tol) & (dist < 10.0 * tol)
    mismatched = np.triu(near & (label[:, None] != label[None, :]), k=1)
    if mismatched.any():
        warnings.warn(
            f"{np.count_nonzero(mismatched)} collocation point pair(s) almost "
            f"coincide (separation < {10.0 * tol:.3e}, worst "
            f"{dist[mismatched].max():.3e}) but were not merged; check patch "
            f"connectivity",
            CollocationMismatchWarning,
            stacklevel=2,
        )

    _, node_of = np.unique(label, return_inverse=True)
    sums = [np.bincount(node_of, column) for column in positions.T]
    means = np.column_stack(sums) / np.bincount(node_of)[:, None]
    means.flags.writeable = False
    cuts = np.cumsum([pair.n_u * pair.n_v for pair in model.field_pairs])
    grids = tuple(ids.reshape(pair.n_u, pair.n_v) for ids, pair
                  in zip(np.split(node_of, cuts[:-1]), model.field_pairs))
    values = node_values(model, grids)
    values.flags.writeable = False
    return CollocationSet(means, grids, tol, values)


class _PatchContext:
    """One patch's quadrature data, alive for the patch's turn in _engine.

    ``greville`` and ``whole`` are the far-field batches, Gauss data
    (positions, normals, weights, weighted basis values) as four
    concatenated columns, built with the context: ``greville`` the base
    regions at ``gauss_order``, region after region, and ``whole`` the unit
    square at COARSE_ORDER. ``base[k]`` holds base region k's Gauss data as
    views of ``greville``. ``whole`` and ``whole_samples``, the patch's
    3x3 samples (seed grid rows 0, 8, 16), are None where an interior knot
    of the field spaces, base surface or trim curves cuts the patch.

    Fans take ``singular_rule`` along their far edges and ``radial_rule``
    from the source outwards: p + 1 points, p the larger field degree, on
    a smooth (``whole`` is not None) affine patch, else ``singular_rule``.
    There, after the Duffy map (Duffy, SIAM J. Numer. Anal. 1982), the
    basis-subtracted traction integrand is a polynomial of degree 2p - 1
    along each ray and the rhs integrand, for a constant traction, a
    constant, so p points are exact; the one more is a margin. A smooth
    patch is affine when its 17 x 17 seed grid lies on its affine map
    through three corners to 1e-13 of its extent.

    ``affine`` holds that map, (corner, u edge, v edge, normal, area
    element), on a smooth affine patch and is None elsewhere. Its normal
    and area element come from one ``frames_at`` call at (0.5, 0.5), so
    ``flip_normal`` and the trim map's orientation and Jacobian hold as on
    the surface. ``_columns`` then takes Gauss data from the map: positions
    corner + u a + v b element by element, the one normal and area element
    for all points. ``project``, ``samples``, ``whole_samples`` and the
    quad-tree still evaluate the surface: the keep tests decide on exact
    ties, which a position at round-off from the surface's could flip.
    """

    def __init__(self, patch, pair, cfg):
        self.patch = patch
        self.pair = pair
        self.regions = region_partition(pair.space_u, pair.space_v)
        self.rule = gauss_rule(cfg.gauss_order)
        self.singular_rule = gauss_rule(cfg.singular_gauss_order)

        side = 17
        grid = np.linspace(0.0, 1.0, side)
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        self.seed_params = np.column_stack([uu.ravel(), vv.ravel()])
        self.seed_positions = patch.points_at(self.seed_params)
        cells = self.seed_positions.reshape(side, side, 3)
        spacing = max(np.linalg.norm(np.diff(cells, axis=a), axis=2).max()
                      for a in (0, 1))
        self.reject_radius = 3.0 * spacing + 1e-30

        self.samples = region_samples(self.regions, patch.points_at)
        spaces = [pair.space_u, pair.space_v]
        if hasattr(patch, "base"):  # a TrimmedPatch
            spaces += [patch.curve_a.space, patch.curve_b.space]
            patch = patch.base
        spaces += [patch.space_u, patch.space_v]
        smooth = all(len(space.breakpoints()[0]) == 2 for space in spaces)
        self.whole_samples = cells[::8, ::8].reshape(9, 3) if smooth else None
        self.whole = None
        corner = cells[0, 0]
        edge_u, edge_v = cells[-1, 0] - corner, cells[0, -1] - corner
        mapped = corner + uu[..., None] * edge_u + vv[..., None] * edge_v
        self.affine = None
        radial = cfg.singular_gauss_order
        if smooth and np.abs(cells - mapped).max() \
                <= 1e-13 * np.ptp(self.seed_positions, axis=0).max():
            centre = self.patch.frames_at([0.5, 0.5])
            self.affine = (corner, edge_u, edge_v, centre.normals[0],
                           centre.areas[0])
            radial = min(radial, max(pair.orders) + 1)
        self.radial_rule = gauss_rule(radial)
        if smooth:
            self.whole = self._batch([0.0, 0.0, 1.0, 1.0],
                                     gauss_rule(COARSE_ORDER))
        self.greville = self._batch(self.regions, self.rule)
        self.base = list(zip(
            *(np.split(c, len(self.regions)) for c in self.greville)))

    def _batch(self, bounds, rule):
        columns = self._columns(*gauss_points(bounds, rule))
        columns[3] *= columns[2][:, None]
        return columns

    def _columns(self, params, weights):
        """Positions, normals, weights times areas and basis values."""
        if self.affine is not None:
            corner, edge_u, edge_v, normal, area = self.affine
            u, v = params.T
            # (3, m) element by element, as frames_at lays them out, so each
            # point depends on its own parameters only; the normals are a
            # copy, not a broadcast view, so each batch owns its columns
            positions = corner[:, None] + u * edge_u[:, None] \
                + v * edge_v[:, None]
            normals = np.tile(normal[:, None], len(params))
            columns = [positions.T, normals.T, weights * area]
        else:
            frames = self.patch.frames_at(params)
            columns = [frames.positions, frames.normals,
                       weights * frames.areas]
            del frames  # free the tangents before the basis batch is built
        return columns + [self.pair.values(params)]

    def evaluate(self, bounds):
        """Quadrature data (positions, normals, weights, weighted basis) of
        (r, 4) quad-tree refined ``bounds``, one tuple per region: views of
        one ``_batch`` of the distinct regions."""
        if not len(bounds):
            return []
        distinct, which = np.unique(bounds, axis=0, return_inverse=True)
        data = list(zip(*(np.split(c, len(distinct))
                          for c in self._batch(distinct, self.rule))))
        return [data[k] for k in which]

    def fans(self, bounds, sources):
        """Quadrature data of the fans over (k, 4) ``bounds`` around their
        (k, 2) singular parameters ``sources``, one tuple of views per fan
        from one ``singular_quadrature_points`` and one ``_columns`` call.
        Each fan's basis values are less those at its singular parameter,
        from one more ``values`` call, before weighting."""
        if not len(bounds):
            return []
        params, weights, counts = singular_quadrature_points(
            bounds, sources, self.radial_rule, self.singular_rule)
        columns = self._columns(params, weights)
        columns[3] -= np.repeat(self.pair.values(sources), counts, axis=0)
        columns[3] *= columns[2][:, None]
        return list(zip(*(np.split(c, np.cumsum(counts)[:-1])
                          for c in columns)))

    def project(self, targets):
        """Closest points on the patch to (m, 3) ``targets``: parameters
        (m, 2) and distances (m,).

        Each row starts at its nearest seed point and takes Gauss-Newton
        steps (point inversion: Piegl & Tiller, *The NURBS Book*, sec. 6.1)
        until its own step is below 1e-14. A row whose 2x2 normal system
        is singular stays where it is. A row whose nearest seed lies beyond
        ``reject_radius`` is not projected and gets parameters NaN and
        distance inf. Seeds are only sought for rows within twice that of
        the seeds' bounding box.
        """
        margin = 2.0 * self.reject_radius
        lo = self.seed_positions.min(axis=0) - margin
        hi = self.seed_positions.max(axis=0) + margin
        boxed = np.flatnonzero(((lo <= targets) & (targets <= hi)).all(axis=1))
        d2 = ((self.seed_positions[None] - targets[boxed, None]) ** 2).sum(2)
        close = d2.min(axis=1) <= self.reject_radius**2
        seeded = active = boxed[close]
        params = np.full((len(targets), 2), np.nan)
        params[seeded] = self.seed_params[d2[close].argmin(axis=1)]
        for _ in range(50):
            if not active.size:
                break
            frames = self.patch.frames_at(params[active])
            tangents = np.stack([frames.tangents_u, frames.tangents_v], 1)
            # matmul, not einsum: each row sums as the one-row res @ tan_u
            grad = tangents @ (frames.positions - targets[active])[:, :, None]
            hess = tangents @ tangents.transpose(0, 2, 1)
            solvable = np.linalg.slogdet(hess).sign != 0.0
            active = active[solvable]
            step = np.linalg.solve(hess[solvable], -grad[solvable])[:, :, 0]
            new = np.clip(params[active] + step, 0.0, 1.0)
            moved = np.abs(new - params[active]).max(axis=1)
            params[active] = new
            active = active[moved >= 1e-14]
        dist = np.full(len(targets), np.inf)
        if seeded.size:  # an empty points_at call still costs its setup
            dist[seeded] = np.linalg.norm(
                self.patch.points_at(params[seeded]) - targets[seeded], axis=1)
        return params, dist


class _Rows:
    """Kernel integrals accumulated into the rows of the system."""

    def __init__(self, n_nodes, material, load, sign):
        self.material = material
        self.load = load
        self.sign = sign
        self.t_blocks = np.zeros((3 * n_nodes, 3 * n_nodes))
        self.row_sums = np.zeros((n_nodes, 3, 3))
        self.rhs = np.zeros((n_nodes, 3))

    def integrate(self, targets, points, normals, weights, weighted):
        """The kernel integrals of (k, 3) ``targets`` over one patch: per
        target the (3, 3, f) kernel block against the patch fields and the
        (3,) rhs, zero without a load.

        ``points``, ``normals`` (m, 3), ``weights`` (m,) and ``weighted``
        (m, f), the patch fields' values times weights, are the patch's
        quadrature data.
        """
        # targets first: each (k, m) difference row and kernel plane is
        # contiguous, and the kernel block reshapes to (9k, m) as it is
        diff = [points.T[c] - targets[:, c, None] for c in range(3)]
        kernel = kelvin_T_many(diff, normals.T, self.material)
        contrib = kernel.reshape(-1, len(weighted)) @ weighted
        rhs = np.zeros((len(targets), 3))
        if self.load is not None:
            tractions = self.load.traction(normals, self.sign)
            rhs = (kelvin_U_many(diff, self.material, tractions.T) @ weights).T
        return contrib.reshape(3, 3, len(targets), -1).transpose(2, 0, 1, 3), rhs

    def scatter(self, parts, ids, signs):
        """Add ``parts`` of ``integrate``, a row per node, to every node's
        rows and the columns of the patch fields ``ids`` under the image
        with diagonal ``signs``: entry (i, j) of each kernel block times
        signs[i] signs[j] in the row sums and, with signs[j] once more for
        the field component at the mirrored point, times signs[i] in the
        matrix; component i of the rhs times signs[i]."""
        contrib, rhs = parts
        self.row_sums += contrib.sum(axis=3) * (signs[:, None] * signs)
        view = self.t_blocks.reshape(len(self.rhs), 3, -1, 3)
        # unbuffered: ids repeats a node where the patch closes on itself
        np.add.at(view, (slice(None), slice(None), ids),
                  contrib.transpose(0, 1, 3, 2) * signs[:, None, None])
        self.rhs += rhs * signs


def _plan(ctx, ids, greville, node, targets, cfg, tol):
    """What one patch needs for all its rows, over all mirror images.

    Row t is one distinct target ``targets[t]``, planned once however many
    images repeat it, at node ``node[t]``, -1 for none. Its singular
    parameters are that node's aliases among the patch's flat node ids
    ``ids``, at ``greville``, in Greville order; the rows with none are
    projected onto the patch in one call, singular closer than ``tol``. A
    base region is far from a row when ``far_mask`` keeps it and it holds
    none of the row's singular parameters. Returns, for the three ways a
    row is integrated: the rows whose base regions are all far that take
    the whole patch, on a patch with ``whole`` that passes ``far_mask`` as
    one region; the other such rows, which take the Greville batch; and a
    dict from each near row, every other row, in row order, to its fans'
    bounds and singular parameters, a mask of the base regions it takes
    whole and the bounds of its quad-tree refined regions. Only near base
    regions go through the one ``quadtree_refine`` call, as PAIR records
    of all rows; a kept record's depth tells a base region kept at the
    depth cap, taken whole by index too, from a refined region.
    """
    # row t's singular parameters, NaN padded: its aliases (row-major, so in
    # Greville order), else its projection
    rows, alias = np.nonzero(node[:, None] == ids)
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    padded = np.full((len(targets), rank.max(initial=0) + 1, 2), np.nan)
    padded[rows, rank] = greville[alias]
    others = np.flatnonzero(np.bincount(rows, minlength=len(targets)) == 0)
    params, dist = ctx.project(targets[others])
    padded[others[dist < tol], 0] = params[dist < tol]
    far = far_mask(ctx.samples, targets[:, None], cfg.quadtree_threshold) \
        & ~contains_mask(padded[:, :, None], ctx.regions).any(axis=1)
    wholly_far = far.all(axis=1)
    whole = wholly_far & (ctx.whole is not None and far_mask(
        ctx.whole_samples, targets, cfg.quadtree_threshold))
    pairs = np.zeros(np.count_nonzero(~far), PAIR)
    pairs["row"], pairs["base"] = np.nonzero(~far)
    pairs["bounds"] = ctx.regions[pairs["base"]]
    kept = quadtree_refine(pairs, targets, padded, ctx.patch.points_at,
                           cfg.quadtree_threshold, cfg.quadtree_max_depth)
    fan = ~np.isnan(kept["fan"][:, 0])
    capped = kept[(kept["depth"] == 0) & ~fan]  # base regions kept at the cap
    far[capped["row"], capped["base"]] = True
    near_rows = np.flatnonzero(~wholly_far)
    fans, refined = (np.split(k, np.searchsorted(k["row"], near_rows[1:]))
                     for k in (kept[fan], kept[(kept["depth"] > 0) & ~fan]))
    near = {t: (f["bounds"], f["fan"], far[t], r["bounds"])
            for t, f, r in zip(near_rows, fans, refined)}
    return whole, wholly_far & ~whole, near


def _near_chunks(near, ctx):
    """The near rows in order, cut greedily into chunks of at most
    BLOCK_PAIRS (point, row) pairs, a fan counted at its four triangles'
    points on the patch of ``ctx`` and a region at gauss_order**2: a chunk
    goes over only when one row alone does. The fan count is an upper
    bound: a fan whose source is a region corner keeps two triangles (on
    cube-far, all 600 fans; 1,200 triangles where 2,400 are counted)."""
    fan = 4 * ctx.radial_rule.order * ctx.singular_rule.order
    chunks, size = [], BLOCK_PAIRS  # full: the first row opens a chunk
    for t, (fans, _, base, refined) in near.items():
        pairs = (fan * len(fans)
                 + ctx.rule.order**2 * (np.count_nonzero(base) + len(refined)))
        if size + pairs > BLOCK_PAIRS:
            chunks.append([])
            size = 0
        chunks[-1].append(t)
        size += pairs
    return chunks


def _engine(model, colloc):
    """Kernel blocks, row sums and right-hand side (zero without a load) of
    every row, before the closure. Each patch's context is built at its turn
    and dropped before the next one; one plan covers the distinct targets of
    all images, each with the node it lies at within the merge tolerance,
    found once per solve. A row, one target, is integrated against the
    unmirrored patch in one call: each near row alone, then the whole-patch
    rows and the Greville rows of all images in far calls of at most
    BLOCK_PAIRS pairs, each into its own rows of one pair of per-row arrays.
    One scatter per image then adds the row of each node's target in that
    image, with the image's signs (module docstring)."""
    cfg = model.config
    group = symmetry_group(model.symmetry_planes)
    positions = colloc.positions
    rows = _Rows(len(positions), model.material, model.load,
                 cfg.excavation_sign)
    targets = np.stack([positions @ mirror.T for mirror in group])
    # first[m, n]: the first image giving node n image m's target
    first = (targets[:, None] == targets).all(axis=3).argmax(axis=1)
    own = first == np.arange(len(group))[:, None]
    # the distinct targets in row-major order; node[t] is the node row t
    # lies at, -1 where its image moves it off, and uses[m, n] the row node
    # n takes in image m
    row_targets, node_of = targets[own], np.nonzero(own)[1]
    node = np.where(np.linalg.norm(row_targets - positions[node_of], axis=1)
                    < colloc.merge_tol, node_of, -1)
    slot = np.cumsum(own).reshape(own.shape) - 1
    uses = slot[first, np.arange(len(positions))]

    for k, (patch, pair) in enumerate(zip(model.patches, model.field_pairs)):
        ctx = _PatchContext(patch, pair, cfg)
        ids = colloc.grids[k].ravel()
        whole, greville_rows, near = _plan(
            ctx, ids, pair.greville_params(), node, row_targets, cfg,
            colloc.merge_tol)
        data = iter(ctx.evaluate(np.concatenate(
            [np.zeros((0, 4)), *(refined for *_, refined in near.values())])))
        parts = [np.zeros((len(row_targets), 3, 3, len(ids))),
                 np.zeros((len(row_targets), 3))]
        for chunk in _near_chunks(near, ctx):
            fans = iter(ctx.fans(*(np.concatenate([near[t][k] for t in chunk])
                                   for k in (0, 1))))
            for t in chunk:
                columns = [next(fans) for _ in near[t][0]]
                columns += [ctx.base[i] for i in np.flatnonzero(near[t][2])]
                columns += [next(data) for _ in near[t][3]]
                integrals = rows.integrate(
                    row_targets[t:t + 1],
                    *(np.concatenate(c) for c in zip(*columns)))
                for store, part in zip(parts, integrals):
                    store[t] = part[0]
        for columns, at in ((ctx.whole, whole), (ctx.greville, greville_rows)):
            at = np.flatnonzero(at)
            if not at.size:
                continue
            step = max(1, BLOCK_PAIRS // len(columns[2]))
            for start in range(0, at.size, step):
                chunk = at[start:start + step]
                integrals = rows.integrate(row_targets[chunk], *columns)
                for store, part in zip(parts, integrals):
                    store[chunk] = part
        for use, mirror in zip(uses, group):
            rows.scatter([p[use] for p in parts], ids, np.diag(mirror))
        del ctx, data  # the next patch's data is built without this one's

    return rows.t_blocks, rows.row_sums, rows.rhs.reshape(-1)


def node_values(model, grids):
    """The (n, n) matrix whose row n gives, against the field coefficients
    of one displacement component, that component at node n: the owner
    patch's basis row at the owner's Greville parameters."""
    # owner[n] is the flat (patch, Greville index) position of node n's owner
    _, owner = np.unique(np.concatenate([grid.ravel() for grid in grids]),
                         return_index=True)
    values = np.zeros((len(owner), len(owner)))
    start = 0
    for grid, pair in zip(grids, model.field_pairs):
        owned = np.flatnonzero((owner >= start) & (owner < start + grid.size))
        if owned.size:
            params = pair.greville_params()[owner[owned] - start]
            # unbuffered: two basis functions of a node both count
            np.add.at(values, (owned[:, None], grid.ravel()), pair.values(params))
        start += grid.size
    return values


def free_term_rigid_body(t_blocks, row_sums, node_values, exterior=False):
    """Complete the diagonal blocks from the rigid-translation identity.

    ``t_blocks`` holds every computed traction-kernel contribution, with
    the singular parts already weakened by basis subtraction. ``row_sums[n]``
    is the plain kernel integral of row n summed over mirror images, and
    ``node_values[n] @ coefficients`` interpolates the displacement at node
    n from the owner patch's basis.

    For every row the untreated part of its singular integrals, together
    with the free term, equals one 3x3 matrix. On a closed (mirror
    completed) surface that matrix must cancel the row's plain kernel
    integral when the whole surface translates rigidly, which determines it
    without ever evaluating a strongly singular integral. The exterior
    formulation shifts the same identity by the identity matrix.
    """
    closure = -row_sums
    if exterior:
        closure = closure + np.eye(3)
    # one product per entry, so adding it to the kernel blocks is exact
    # whichever operand comes first
    matrix = np.einsum("nm,nij->nimj", node_values, closure, order="C")
    matrix += t_blocks.reshape(matrix.shape)
    return matrix.reshape(t_blocks.shape)


def assemble(model, colloc=None):
    """The dense system ``(matrix, rhs)`` of a model, closure included."""
    if colloc is None:
        colloc = collocation_points(model)
    if not model.closed:
        raise UnsupportedModelError(
            "free-term closure requires a closed surface; open models are "
            "only supported when mirror images close them (set closed=True "
            "in that case)"
        )
    t_blocks, row_sums, rhs = _engine(model, colloc)
    return free_term_rigid_body(t_blocks, row_sums, colloc.node_values,
                                model.exterior), rhs
