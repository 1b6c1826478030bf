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
quad-tree refinement. A row is far from a patch when the quad-tree keeps
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
and one basis call, their fans chunk by chunk.
A kernel call or near chunk holds at most BLOCK_PAIRS (point, row) pairs,
so its memory does not grow with the model.

A mirror image M, a diagonal reflection with signs s_i = M_ii, only flips
signs: bit for bit, T(M y - x, M n) = M T(y - M x, n) M and, for a load
symmetric about the planes, U(M y - x) t(M n) = M U(y - M x) t(n). So a
row is a target M x, not a node: each distinct target is planned and
integrated once against the unmirrored patch, however many images give it,
and each image adds it with entry (i, j) times s_i s_j and rhs component i
times s_i.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollocationMismatchWarning,
    QuadratureError,
    UnsupportedModelError,
)
from .kernels import kelvin_T_many, kelvin_U_many
from .model import symmetry_group
from .quadrature import IntegrationRegion, contains_mask, far_mask, \
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
        if smooth:
            self.whole = self._batch([IntegrationRegion(0.0, 1.0, 0.0, 1.0)],
                                     gauss_rule(COARSE_ORDER))
        self.greville = self._batch(self.regions, self.rule)
        self.base = list(zip(
            *(np.split(c, len(self.regions)) for c in self.greville)))

    def _batch(self, regions, rule):
        quad = [region.gauss_points(rule) for region in regions]
        columns = self._columns(*(np.concatenate(c) for c in zip(*quad)))
        columns[3] *= columns[2][:, None]
        return columns

    def _columns(self, params, weights):
        """Positions, normals, weights times areas and basis values."""
        frames = self.patch.frames_at(params)
        columns = [frames.positions, frames.normals, weights * frames.areas]
        del frames  # free the tangents before the basis batch is built
        return columns + [self.pair.values(params)]

    def evaluate(self, regions):
        """Quadrature data (positions, normals, weights, weighted basis) of
        quad-tree refined ``regions``, keyed by region: views of one
        ``_batch`` of the distinct regions, in first-seen order."""
        refined = list(dict.fromkeys(regions))
        if not refined:
            return {}
        return dict(zip(refined, zip(
            *(np.split(c, len(refined))
              for c in self._batch(refined, self.rule)))))

    def fans(self, fans):
        """Quadrature data of ``fans``, (region, singular parameter) pairs,
        one tuple of views per fan from one ``_columns`` call. Each fan's
        basis values are less those at its singular parameter, from one
        more ``values`` call, before weighting."""
        if not fans:
            return []
        quad = [singular_quadrature_points(region, param, self.singular_rule)
                for region, param in fans]
        columns = self._columns(*(np.concatenate(c) for c in zip(*quad)))
        cuts = np.cumsum([len(w) for _, w in quad])[:-1]
        entries = list(zip(*(np.split(c, cuts) for c in columns)))
        at = self.pair.values(np.array([param for _, param in fans]))
        for (_, _, _, basis), row in zip(entries, at):
            basis -= row
        columns[3] *= columns[2][:, None]  # in place: entries are views
        return entries

    def project(self, targets):
        """Closest points on the patch to (m, 3) ``targets``: parameters
        (m, 2) and distances (m,).

        Each row starts at its nearest seed point and takes Gauss-Newton
        steps (point inversion: Piegl & Tiller, *The NURBS Book*, sec. 6.1)
        until its own step is below 1e-14. A row whose 2x2 normal system
        is singular stays where it is. A row whose nearest seed lies beyond
        ``reject_radius`` is not projected and gets distance inf.
        """
        d2 = ((self.seed_positions[None] - targets[:, None]) ** 2).sum(axis=2)
        params = self.seed_params[d2.argmin(axis=1)]
        seeded = d2.min(axis=1) <= self.reject_radius**2
        active = np.flatnonzero(seeded)
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
        if seeded.any():  # an empty points_at call still costs its setup
            dist[seeded] = np.linalg.norm(
                self.patch.points_at(params[seeded]) - targets[seeded], axis=1)
        return params, dist


def _split_singular(regions, params, depth=0):
    """Pair each region holding a singular parameter with exactly one."""
    if depth > 40:
        raise QuadratureError(
            "could not separate singular parameters into distinct regions"
        )
    singular = []
    regular = []
    for region, hits in zip(regions, contains_mask(params, regions).T):
        inside = [p for p, hit in zip(params, hits) if hit]
        if not inside:
            regular.append(region)
        elif len(inside) == 1:
            singular.append((region, inside[0]))
        else:
            sub_s, sub_r = _split_singular(region.split(), inside, depth + 1)
            singular.extend(sub_s)
            regular.extend(sub_r)
    return singular, regular


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


def _plan(ctx, alias_rows, alias_params, sources, targets, cfg, tol):
    """What one patch needs for all its rows, over all mirror images.

    Row t is one distinct (image, node) target, planned once however many
    images repeat it: ``sources[t]`` is the node's position and
    ``targets[t]`` its image. ``alias_rows`` (sorted) and ``alias_params``
    give each row's node's Greville parameters on the patch, its singular
    parameters when the image is the node itself; every other row is
    projected onto the patch in one call, singular where that lies closer
    than ``tol``. A base region is far from a row when ``far_mask`` keeps
    it and it holds none of the row's singular parameters. Returns three
    things, one for each way a row is integrated. The rows that take the
    whole patch: those whose base regions are all far, on a patch with
    ``whole`` that passes ``far_mask`` as one region. The other rows whose
    base regions are all far, which take the Greville batch. And a dict
    from each near row, every other row, in row order, to three things:
    its fans as (region, singular parameter) pairs, a mask of the base
    regions it takes whole, and its quad-tree refined regions. Far base
    regions are taken whole by index, so only the others, which the
    quad-tree refines, go through one ``quadtree_refine`` call for all.
    """
    far = far_mask(ctx.samples, targets[:, None], cfg.quadtree_threshold)
    aliased = (np.linalg.norm(targets - sources, axis=1) < tol)[alias_rows]
    others = np.flatnonzero(
        np.bincount(alias_rows[aliased], minlength=len(targets)) == 0)
    params, dist = ctx.project(targets[others])
    rows = np.concatenate([alias_rows[aliased], others[dist < tol]])
    sing = np.concatenate([alias_params[aliased], params[dist < tol]])
    np.logical_and.at(far, rows, ~contains_mask(sing, ctx.regions))
    wholly_far = far.all(axis=1)
    whole = np.zeros(len(targets), dtype=bool)
    if ctx.whole is not None:
        whole = wholly_far & far_mask(ctx.whole_samples, targets,
                                      cfg.quadtree_threshold)
    order = np.argsort(rows, kind="stable")
    held, starts = np.unique(rows[order], return_index=True)
    singular = dict(zip(held, np.split(sing[order], starts[1:])))
    near, pairs = {}, []
    for t in np.flatnonzero(~wholly_far):
        # the regions holding singular parameters are among these
        fans, regular = [], [ctx.regions[i] for i in np.flatnonzero(~far[t])]
        if t in singular:
            fans, regular = _split_singular(regular, singular[t])
        near[t] = (fans, far[t].copy(), [])
        pairs += [(t, region) for region in regular]
    for t, region in quadtree_refine(pairs, targets, ctx.patch.points_at,
                                     cfg.quadtree_threshold,
                                     cfg.quadtree_max_depth):
        if region.depth:
            near[t][2].append(region)
        else:  # a base region kept at the depth cap
            near[t][1][ctx.regions.index(region)] = True
    return whole, wholly_far & ~whole, near


def _near_chunks(near, cfg):
    """The near rows in order, cut greedily into chunks of at most
    BLOCK_PAIRS (point, row) pairs, a fan counted at its four triangles'
    points and a region at gauss_order**2: a chunk goes over only when one
    row alone does."""
    chunks, size = [], BLOCK_PAIRS  # full: the first row opens a chunk
    for t, (fans, base, refined) in near.items():
        pairs = (4 * cfg.singular_gauss_order**2 * len(fans)
                 + cfg.gauss_order**2 * (np.count_nonzero(base) + len(refined)))
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
    all images. A row, one target, is integrated against the unmirrored
    patch in one call: each near row alone, then the whole-patch rows and the
    Greville rows of all images in far calls of at most BLOCK_PAIRS pairs,
    each into its own rows of one pair of per-row arrays. One scatter per
    image then adds the row of each node's target in that image, with the
    image's signs (module docstring)."""
    cfg = model.config
    group = symmetry_group(model.symmetry_planes)
    positions = colloc.positions
    rows = _Rows(len(positions), model.material, model.load,
                 cfg.excavation_sign)
    targets = np.stack([positions @ mirror.T for mirror in group])
    # first[m, n]: the first image giving node n image m's target
    first = (targets[:, None] == targets).all(axis=3).argmax(axis=1)
    own = first == np.arange(len(group))[:, None]
    # the distinct targets in row-major order, row t the image image[t] of
    # node node_of[t]; uses[m, n] is the row node n takes in image m
    image, node_of = np.nonzero(own)
    row_targets = targets[image, node_of]
    slot = np.cumsum(own).reshape(own.shape) - 1
    uses = slot[first, np.arange(len(positions))]

    for k, (patch, pair) in enumerate(zip(model.patches, model.field_pairs)):
        ctx = _PatchContext(patch, pair, cfg)
        ids = colloc.grids[k].ravel()
        index = np.argsort(ids, kind="stable")  # aliases in node order
        hit = own[:, ids[index]]
        whole, greville_rows, near = _plan(
            ctx, slot[:, ids[index]][hit],
            pair.greville_params()[index[np.nonzero(hit)[1]]],
            positions[node_of], row_targets, cfg, colloc.merge_tol)
        data = ctx.evaluate(
            [region for _, _, refined in near.values() for region in refined])
        parts = [np.zeros((len(image), 3, 3, len(ids))),
                 np.zeros((len(image), 3))]
        for chunk in _near_chunks(near, cfg):
            fans = iter(ctx.fans([fan for t in chunk for fan in near[t][0]]))
            for t in chunk:
                columns = [next(fans) for _ in near[t][0]]
                columns += [ctx.base[i] for i in np.flatnonzero(near[t][1])]
                columns += [data[region] for region in near[t][2]]
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
