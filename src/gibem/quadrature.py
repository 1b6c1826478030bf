"""Numerical integration over patch parameter rectangles.

The unit square of each patch is first cut into rectangles along lines
through the interior collocation abscissae.  Rectangles near the source
point are split recursively (quad-tree) until their size is comparable to
their distance from it; the rectangle containing the source itself is
integrated with a triangle fan around the source whose degenerate mapping
absorbs the 1/r singularity of the displacement kernel.
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
    "IntegrationRegion",
    "gauss_rule",
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


@dataclass(frozen=True)
class IntegrationRegion:
    """Axis-aligned rectangle in a patch's unit parameter square."""

    u0: float
    u1: float
    v0: float
    v1: float
    depth: int = 0

    def __post_init__(self):
        if not (self.u0 < self.u1 and self.v0 < self.v1):
            raise QuadratureError(f"empty integration region {self}")

    @property
    def area(self) -> float:
        return (self.u1 - self.u0) * (self.v1 - self.v0)

    def split(self) -> list["IntegrationRegion"]:
        um = 0.5 * (self.u0 + self.u1)
        vm = 0.5 * (self.v0 + self.v1)
        d = self.depth + 1
        return [
            IntegrationRegion(self.u0, um, self.v0, vm, d),
            IntegrationRegion(um, self.u1, self.v0, vm, d),
            IntegrationRegion(self.u0, um, vm, self.v1, d),
            IntegrationRegion(um, self.u1, vm, self.v1, d),
        ]

    def gauss_points(self, rule: GaussRule):
        """Tensor Gauss points and weights scaled to the rectangle."""
        gu = 0.5 * (self.u0 + self.u1) + 0.5 * (self.u1 - self.u0) * rule.nodes
        gv = 0.5 * (self.v0 + self.v1) + 0.5 * (self.v1 - self.v0) * rule.nodes
        params = np.stack(
            [np.repeat(gu, rule.order), np.tile(gv, rule.order)], axis=1
        )
        wts = np.outer(rule.weights, rule.weights).reshape(-1) * (self.area / 4.0)
        return params, wts


def _cut_lines(space: BasisSpace) -> np.ndarray:
    interior = greville_abscissae(space)[1:-1]
    cuts = sorted({0.0, 1.0, *(float(g) for g in interior)})
    out = [cuts[0]]
    for c in cuts[1:]:
        if c - out[-1] > 1e-12:
            out.append(c)
    return np.asarray(out)


def region_partition(field_u: BasisSpace,
                     field_v: BasisSpace) -> list[IntegrationRegion]:
    """Rectangles bounded by lines through the interior collocation abscissae.

    Collocation points land on region corners by construction, which is what
    the singular integration scheme expects.
    """
    lines_u = _cut_lines(field_u)
    lines_v = _cut_lines(field_v)
    return [
        IntegrationRegion(lines_u[i], lines_u[i + 1], lines_v[j], lines_v[j + 1])
        for i in range(lines_u.size - 1)
        for j in range(lines_v.size - 1)
    ]


_SAMPLE_GRID = np.stack(
    np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], indexing="ij"), axis=-1
).reshape(-1, 2)


def _sample_params(region: IntegrationRegion) -> np.ndarray:
    lo = np.array([region.u0, region.v0])
    size = np.array([region.u1 - region.u0, region.v1 - region.v0])
    return lo + _SAMPLE_GRID * size


def region_samples(regions, point_fn) -> np.ndarray:
    """Mapped 3x3 sample grids, (r, 9, 3), from one ``point_fn`` call on
    the (r * 9, 2) sample parameters of all regions, region by region."""
    params = np.concatenate([_sample_params(region) for region in regions])
    return point_fn(params).reshape(len(regions), len(_SAMPLE_GRID), 3)


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


def contains_mask(params, regions) -> np.ndarray:
    """Entry (i, j) is True where ``params[i]`` lies in the closed rectangle
    ``regions[j]`` widened by 1e-9 on every side."""
    bounds = np.array([[r.u0, r.v0, r.u1, r.v1] for r in regions]) \
        + [-1e-9, -1e-9, 1e-9, 1e-9]
    params = np.asarray(params, dtype=float).reshape(-1, 1, 2)
    return ((bounds[:, :2] <= params) & (params <= bounds[:, 2:])).all(axis=2)


def quadtree_refine(pairs, sources, point_fn, threshold: float = 1.0,
                    max_depth: int = 6) -> list:
    """Split the region of each (source index, region) pair until its mapped
    size is below ``threshold`` times the distance to ``sources[index]``.

    ``point_fn`` maps an (m, 2) parameter array to (m, 3) surface points.
    Per level, the distinct regions are mapped in one ``point_fn`` call and
    the level's pairs, and only those, are decided by one ``far_mask``
    call.  Regions containing their source are the singular integration's
    job, not this one's.  Kept pairs come back sorted stably by source
    index, each source's regions in level-by-level order; regions that
    pass ``far_mask`` come back unsplit, as the same objects.  Hitting the
    depth cap logs a warning and keeps the region.
    """
    sources = np.asarray(sources, dtype=float).reshape(-1, 3)
    out, capped, level = [], [], list(pairs)
    while level:
        column = {}  # each distinct region's index, in first-seen order
        cols = [column.setdefault(region, len(column)) for _, region in level]
        far = far_mask(region_samples(column, point_fn)[cols],
                       sources[[source for source, _ in level]], threshold)
        deeper = []
        for (source, region), keep in zip(level, far):
            if keep or region.depth >= max_depth:
                if not keep:
                    capped.append(source)
                out.append((source, region))
            else:
                deeper.extend((source, sub) for sub in region.split())
        level = deeper
    if capped:
        log.warning(
            "quad-tree depth cap %d reached for %d region(s) near sources %s",
            max_depth, len(capped),
            np.array2string(np.unique(sources[capped], axis=0), precision=4,
                            max_line_width=np.inf),
        )
    return sorted(out, key=lambda pair: pair[0])


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
    outside = ~((bounds[:, :2] - 1e-9 <= s) & (s <= bounds[:, 2:] + 1e-9))
    if outside.any():
        i = outside.any(axis=1).argmax()
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
