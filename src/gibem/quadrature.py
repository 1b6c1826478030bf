"""Numerical integration over patch parameter rectangles.

The unit square of each patch is first cut into rectangles along lines
through the interior collocation abscissae.  One quad-tree splits them:
a rectangle holding two or more of the source's parameters on the patch
until each holds one, a rectangle holding none until its size is
comparable to its distance from the source. A rectangle holding one is
integrated with a triangle fan around it whose degenerate mapping absorbs
the 1/r singularity of the displacement kernel.

A set of r rectangles is an (r, 4) array of bounds (u0, v0, u1, v1). Each
function here treats every row on its own, so one call over r rectangles
gives what r one-rectangle calls give, bit for bit. The quad-tree carries
rectangles as PAIR records.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .splines import BasisSpace, greville_abscissae

__all__ = [
    "GaussRule",
    "PAIR",
    "gauss_rule",
    "gauss_points",
    "split",
    "region_partition",
    "region_samples",
    "far_mask",
    "contains_mask",
    "quadtree_refine",
    "singular_quadrature_points",
]

log = logging.getLogger(__name__)

MAX_GAUSS_ORDER = 64


@dataclass(frozen=True, eq=False)
class GaussRule:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=None)
def _cached_rule(order: int) -> GaussRule:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(nodes, weights)


def gauss_rule(order: int) -> GaussRule:
    """Gauss-Legendre rule of the given order (1 to 64 points)."""
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_GAUSS_ORDER:
        raise QuadratureError(
            f"Gauss order must be an integer in [1, {MAX_GAUSS_ORDER}], got {order!r}"
        )
    return _cached_rule(int(order))


# A quad-tree pair, one record per region: ``row``, the index of the source
# it is refined for; ``base``, the index of the base region it lies in;
# ``bounds`` (u0, v0, u1, v1); ``depth``, its splits from that base region;
# ``fan``, the singular parameter it is fanned around, NaN if none.
PAIR = np.dtype([("row", np.intp), ("base", np.intp), ("bounds", float, 4),
                 ("depth", np.intp), ("fan", float, 2)])


def split(pairs) -> np.ndarray:
    """The PAIR records of each record's quarters, one level deeper, row and
    base region inherited: record after record, each as low u low v, high u
    low v, low u high v, high u high v."""
    u0, v0, u1, v1 = pairs["bounds"].T
    lines = np.stack([u0, 0.5 * (u0 + u1), u1, v0, 0.5 * (v0 + v1), v1], 1)
    out = np.repeat(pairs, 4)
    out["bounds"] = lines[:, [[0, 3, 1, 4], [1, 3, 2, 4], [0, 4, 1, 5],
                              [1, 4, 2, 5]]].reshape(-1, 4)
    out["depth"] += 1
    return out


def gauss_points(bounds, rule: GaussRule):
    """Tensor Gauss points (r n^2, 2) and weights (r n^2,) scaled to (r, 4)
    rectangles, rectangle after rectangle, n = ``rule.order``."""
    u0, v0, u1, v1 = np.reshape(bounds, (-1, 4)).T[..., None]
    gu = 0.5 * (u0 + u1) + 0.5 * (u1 - u0) * rule.nodes
    gv = 0.5 * (v0 + v1) + 0.5 * (v1 - v0) * rule.nodes
    params = np.stack([np.repeat(gu, rule.order, axis=1),
                       np.tile(gv, rule.order)], axis=2)
    wts = np.outer(rule.weights, rule.weights).reshape(-1) \
        * (((u1 - u0) * (v1 - v0)) / 4.0)
    return params.reshape(-1, 2), wts.reshape(-1)


def _cut_lines(space: BasisSpace) -> np.ndarray:
    interior = greville_abscissae(space)[1:-1]
    cuts = sorted({0.0, 1.0, *(float(g) for g in interior)})
    out = [cuts[0]]
    for c in cuts[1:]:
        if c - out[-1] > 1e-12:
            out.append(c)
    return np.asarray(out)


def region_partition(field_u: BasisSpace, field_v: BasisSpace) -> np.ndarray:
    """Rectangles bounded by lines through the interior collocation
    abscissae, as (r, 4) bounds (u0, v0, u1, v1), u-major.

    Collocation points land on region corners by construction, which is what
    the singular integration scheme expects.
    """
    lines_u = _cut_lines(field_u)
    lines_v = _cut_lines(field_v)
    lo = np.meshgrid(lines_u[:-1], lines_v[:-1], indexing="ij")
    hi = np.meshgrid(lines_u[1:], lines_v[1:], indexing="ij")
    return np.stack([*lo, *hi], axis=2).reshape(-1, 4)


_SAMPLE_GRID = np.stack(
    np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], indexing="ij"), axis=-1
).reshape(-1, 2)


def region_samples(bounds, point_fn) -> np.ndarray:
    """Mapped 3x3 sample grids, (r, 9, 3), of (r, 4) rectangles from one
    ``point_fn`` call on their (r * 9, 2) sample parameters, rectangle by
    rectangle."""
    lo, hi = np.reshape(bounds, (-1, 1, 2, 2)).transpose(2, 0, 1, 3)
    params = (lo + _SAMPLE_GRID * (hi - lo)).reshape(-1, 2)
    return point_fn(params).reshape(len(lo), len(_SAMPLE_GRID), 3)


def far_mask(samples, sources, threshold: float = 1.0) -> np.ndarray:
    """The quad-tree's keep test on (..., 9, 3) region samples and (..., 3)
    sources, broadcast against them: True where the region's longest mapped
    edge is at most ``threshold`` times the distance from the source to the
    nearest sample. ``quadtree_refine`` and assembly decide through it, so
    they agree."""
    edges = samples[..., [0, 2, 8, 6], :] - samples[..., [2, 8, 6, 0], :]
    size = np.sqrt((edges * edges).sum(axis=-1)).max(axis=-1)
    diff = samples - sources[..., None, :]
    dist = np.sqrt((diff * diff).sum(axis=-1)).min(axis=-1)
    return size <= threshold * dist


def contains_mask(params, bounds) -> np.ndarray:
    """True where (..., 2) ``params`` lie in the closed rectangles (..., 4)
    ``bounds``, (u0, v0, u1, v1), widened by 1e-9 on every side; the two
    broadcast against each other."""
    bounds = np.asarray(bounds, dtype=float)
    params = np.asarray(params, dtype=float)
    return ((bounds[..., :2] - 1e-9 <= params)
            & (params <= bounds[..., 2:] + 1e-9)).all(axis=-1)


def quadtree_refine(pairs, sources, params, point_fn, threshold: float = 1.0,
                    max_depth: int = 6) -> np.ndarray:
    """Split the region of each PAIR record until it holds at most one of
    its row's singular parameters ``params[row]`` ((rows, k, 2), NaN
    padded) and, holding none, passes ``far_mask`` for ``sources[row]``.

    Per level, a region holding one parameter is kept as its fan and one
    holding more is split; the distinct regions holding none are mapped in
    one ``point_fn`` call ((m, 2) parameters to (m, 3) points) and decided
    by one ``far_mask`` call. Kept pairs come back as PAIR records sorted
    stably by row, each row's in level-by-level order; ``fan`` is NaN but
    on the fans. Hitting the depth cap logs a warning and keeps the region;
    parameters sharing a region narrower than 1e-8 raise QuadratureError.
    """
    sources = np.asarray(sources, dtype=float).reshape(-1, 3)
    level = np.array(pairs, dtype=PAIR)  # a copy: ``fan`` is written below
    level["fan"] = np.nan
    out, capped = [level[:0]], [level["row"][:0]]
    while level.size:
        hits = contains_mask(params[level["row"]], level["bounds"][:, None])
        held = hits.sum(axis=1)
        crowded = level["bounds"][held > 1]
        if (crowded[:, 2:] - crowded[:, :2] < 1e-8).any():
            raise QuadratureError("could not separate singular parameters "
                                  "into distinct regions")
        kept = held == 1
        level["fan"][kept] = params[level["row"][kept],
                                    np.nonzero(hits[kept])[1]]
        free = level[held == 0]
        distinct, column = np.unique(free["bounds"], axis=0,
                                     return_inverse=True)
        far = far_mask(region_samples(distinct, point_fn)[column],
                       sources[free["row"]], threshold)
        kept[held == 0] = far | (free["depth"] >= max_depth)
        capped.append(free["row"][~far & (free["depth"] >= max_depth)])
        out.append(level[kept])
        level = split(level[~kept])
    capped = np.concatenate(capped)
    if capped.size:
        log.warning(
            "quad-tree depth cap %d reached for %d region(s) near sources %s",
            max_depth, capped.size,
            np.array2string(np.unique(sources[capped], axis=0), precision=4,
                            max_line_width=np.inf),
        )
    out = np.concatenate(out, dtype=PAIR)
    return out[np.argsort(out["row"], kind="stable")]


def singular_quadrature_points(bounds, sources, radial: GaussRule,
                               angular: GaussRule):
    """Quadrature points for n integrands, each with a 1/r singularity at
    ``sources[i]`` (n, 2) inside (or on the boundary of) the rectangle
    ``bounds[i]`` (n, 4), given as (u0, v0, u1, v1).

    Each rectangle is fanned into four triangles sharing the source as a
    vertex, one row each; a triangle is the image of a collapsed
    quadrilateral whose mapping Jacobian vanishes linearly at the source,
    cancelling the singularity, and takes ``radial`` points from the source
    outwards times ``angular`` points along its far edge. The rows of flat
    triangles, whose far edge holds the source, are dropped by one mask.
    Returns parameters (m, 2) and weights (m,) in the parameter plane, fan
    after fan and triangle after triangle, and each fan's point count (n,).
    """
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 4)
    s = np.asarray(sources, dtype=float).reshape(-1, 2)
    outside = ~contains_mask(s, bounds)
    if outside.any():
        i = outside.argmax()
        raise QuadratureError(f"singular point {tuple(s[i])} lies outside "
                              f"region (u0, v0, u1, v1) = {tuple(bounds[i])}")
    # row 4 i + k is the triangle (source, corner k, corner k + 1) of fan i
    corners = bounds[:, [[0, 1], [2, 1], [2, 3], [0, 3]]]
    v1 = corners.reshape(-1, 2)
    v2 = np.roll(corners, -1, axis=1).reshape(-1, 2)
    s = np.repeat(s, 4, axis=0)
    twice_area = np.abs((v1[:, 0] - s[:, 0]) * (v2[:, 1] - s[:, 1])
                        - (v2[:, 0] - s[:, 0]) * (v1[:, 1] - s[:, 1]))
    area = (bounds[:, 2] - bounds[:, 0]) * (bounds[:, 3] - bounds[:, 1])
    keep = twice_area > 1e-14 * np.repeat(np.maximum(area, 1e-30), 4)
    xi = np.repeat(0.5 * (radial.nodes + 1.0), angular.order)
    eta = np.tile(0.5 * (angular.nodes + 1.0), radial.order)
    ww = np.outer(0.5 * radial.weights, 0.5 * angular.weights).reshape(-1)
    s, v1, v2 = s[keep, None], v1[keep, None], v2[keep, None]
    params = s + xi[:, None] * ((v1 - s) + eta[:, None] * (v2 - v1))
    weights = ww * xi * twice_area[keep, None]
    counts = xi.size * keep.reshape(-1, 4).sum(axis=1)
    return params.reshape(-1, 2), weights.reshape(-1), counts
