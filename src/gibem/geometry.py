"""NURBS surface patches and trimmed patches.

A patch is evaluated span by span (Piegl & Tiller, *The NURBS Book*,
algorithms A3.5 and A4.3): each parameter row gathers the (p+1)(q+1)
homogeneous control points (w x, w) of its knot span and sums them in one
fixed order, over v inside and then over u, so every row depends only on
its own parameters and never on the batch it is evaluated in.  The sums
are component-major, points on the last axis: homogeneous sums are (4, m),
points and tangents (3, m) and trim-map Jacobians (2, 2, m), and the
(m, 3) arrays a caller gets are their transposed views.

A trimmed patch restricts a surface to the band between two curves drawn in
the patch parameter plane.  The unit square (s, t) is mapped into the
parameter plane by blending the two curves linearly in s, and the composite
surface map chains that plane map with the patch itself, so downstream code
integrates over the unit square regardless of trimming.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrimError, GeometryError, SingularFrameError
from .splines import (
    BasisSpace,
    bspline_curve_derivs,
    bspline_span_basis,
    fixed_order_sum,
    unit_interval_space,
)
# the names ``perfbench/tracer.py`` wraps; nothing here calls them now
from .splines import bspline_basis_derivs_many, bspline_basis_many  # noqa: F401

__all__ = [
    "FrameBatch",
    "NurbsPatch",
    "TrimmingCurve",
    "TrimmedPatch",
    "build_quarter_cylinder",
]

_PARALLEL_TOL = 1e-12
# rows per span gather: gathering a 161 x 161 output grid at once doubles
# the transient memory of an evaluation and raises the process's peak RSS
_SPAN_BATCH = 4096
# side of the parameter grid on which a trim map is checked at construction
_TRIM_VALIDATION_SAMPLES = 17


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """Frames at many parameter points, stored as arrays (rows align).

    The four (m, 3) fields are transposed views of component-major (3, m)
    arrays, one array each, so ``field.T[k]`` is a contiguous component.
    ``areas`` holds the norm of the tangent cross product, in the
    coordinates the frames were requested in; for trimmed patches it already
    includes the plane-map Jacobian determinant.
    """

    positions: np.ndarray
    tangents_u: np.ndarray
    tangents_v: np.ndarray
    normals: np.ndarray
    areas: np.ndarray

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class NurbsPatch:
    """Tensor-product NURBS surface.

    ``control_points`` has shape (A, B, 3) and ``weights`` (A, B), with A
    control points along u and B along v.  ``flip_normal`` reverses the
    reported surface normal so the patch can be oriented outward regardless
    of how the control net is wound.
    """

    space_u: BasisSpace
    space_v: BasisSpace
    control_points: np.ndarray
    weights: np.ndarray
    flip_normal: bool = False

    def __post_init__(self):
        cps = np.array(self.control_points, dtype=float)
        wts = np.array(self.weights, dtype=float)
        a, b = self.space_u.n_basis, self.space_v.n_basis
        if cps.shape != (a, b, 3):
            raise GeometryError(
                f"control point grid must have shape {(a, b, 3)}, got {cps.shape}"
            )
        if wts.shape != (a, b):
            raise GeometryError(
                f"weight grid must have shape {(a, b)}, got {wts.shape}"
            )
        if not np.isfinite(cps).all():
            raise GeometryError("control points must be finite")
        if not (np.isfinite(wts) & (wts > 0.0)).all():
            raise GeometryError("weights must be finite and strictly positive")
        cps.setflags(write=False)
        wts.setflags(write=False)
        # (w x, w y, w z, w) of control point (a, b) in column a * B + b
        net = np.vstack([wts.ravel() * cps.reshape(-1, 3).T, wts.ravel()])
        net.setflags(write=False)
        object.__setattr__(self, "control_points", cps)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "_net", net)
        object.__setattr__(self, "flip_normal", bool(self.flip_normal))

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        flat = self.control_points.reshape(-1, 3)
        return flat.min(axis=0), flat.max(axis=0)

    def _span_sums(self, params: np.ndarray, derivs: bool):
        """Homogeneous sums (4, m) of each row's span: the point, then with
        ``derivs`` its u and v derivatives."""
        if len(params) > _SPAN_BATCH:
            parts = [self._span_sums(params[i:i + _SPAN_BATCH], derivs)
                     for i in range(0, len(params), _SPAN_BATCH)]
            return [np.concatenate(column, axis=1) for column in zip(*parts)]
        first_u, tables_u = bspline_span_basis(self.space_u, params[:, 0], derivs)
        first_v, tables_v = bspline_span_basis(self.space_v, params[:, 1], derivs)
        n_v = self.space_v.n_basis
        # near[b, a, c, i] is component c of net entry
        # (first_u[i] + a, first_v[i] + b)
        offsets = np.arange(len(tables_v[0]))[:, None] \
            + n_v * np.arange(len(tables_u[0]))
        near = self._net[:, offsets[:, :, None] + (first_u * n_v + first_v)]
        near = near.transpose(1, 2, 0, 3)
        along_v = [fixed_order_sum(table, near) for table in tables_v]
        sums = [fixed_order_sum(tables_u[0], along_v[0])]
        if derivs:
            sums.append(fixed_order_sum(tables_u[1], along_v[0]))
            sums.append(fixed_order_sum(tables_u[0], along_v[1]))
        return sums

    def points_at(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float).reshape(-1, 2)
        (hom,) = self._span_sums(params, derivs=False)
        return (hom[:3] / hom[3]).T

    def frames_at(self, params: np.ndarray) -> FrameBatch:
        params = np.asarray(params, dtype=float).reshape(-1, 2)
        hom, hom_u, hom_v = self._span_sums(params, derivs=True)
        den = hom[3]
        pos = hom[:3] / den
        tan_u = (hom_u[:3] - pos * hom_u[3]) / den
        tan_v = (hom_v[:3] - pos * hom_v[3]) / den
        return _finish_frames(params, pos, tan_u, tan_v, self.flip_normal)


def _finish_frames(params, pos, tan_u, tan_v, flip: bool) -> FrameBatch:
    """Normals and areas from (3, m) tangents; the frames of ``params``."""
    cross = np.empty_like(tan_u)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        cross[k] = tan_u[i] * tan_v[j] - tan_u[j] * tan_v[i]
    areas = np.linalg.norm(cross, axis=0)
    scale = np.linalg.norm(tan_u, axis=0) * np.linalg.norm(tan_v, axis=0)
    degenerate = areas <= _PARALLEL_TOL * np.maximum(scale, 1e-300)
    if np.any(degenerate):
        i = int(np.argmax(degenerate))
        raise SingularFrameError(
            f"surface tangents are parallel at parameter {tuple(params[i])}"
        )
    normals = cross / areas
    if flip:
        normals = -normals
    return FrameBatch(pos.T, tan_u.T, tan_v.T, normals.T, areas)


@dataclass(frozen=True, eq=False)
class TrimmingCurve:
    """B-spline curve in the unit parameter square of a patch.

    The knot vector is rescaled to [0, 1] on construction; control points
    must stay inside the unit square.
    """

    space: BasisSpace
    control_points: np.ndarray

    def __post_init__(self):
        cps = np.array(self.control_points, dtype=float)
        if cps.ndim != 2 or cps.shape[1] != 2:
            raise GeometryError("trim curve control points must have shape (n, 2)")
        if cps.shape[0] != self.space.n_basis:
            raise GeometryError(
                f"trim curve expects {self.space.n_basis} control points, "
                f"got {cps.shape[0]}"
            )
        if not np.all((cps >= -1e-9) & (cps <= 1.0 + 1e-9)):  # so NaN fails
            raise GeometryError("trim curve control points must lie in [0, 1]^2")
        np.clip(cps, 0.0, 1.0, out=cps)
        lo, hi = self.space.domain
        if (lo, hi) != (0.0, 1.0):
            rescaled = (self.space.knots - lo) / (hi - lo)
            space = BasisSpace(rescaled, self.space.degree)
            object.__setattr__(self, "space", space)
        cps.setflags(write=False)
        object.__setattr__(self, "control_points", cps)

    def evaluate(self, ts) -> np.ndarray:
        """Points and first parameter derivatives, shape (len(ts), 2, 2)."""
        return bspline_curve_derivs(self.space, self.control_points, ts)

    def reversed(self) -> "TrimmingCurve":
        knots = 1.0 - self.space.knots[::-1]
        space = BasisSpace(knots, self.space.degree)
        return TrimmingCurve(space, self.control_points[::-1].copy())


def _plane_map(curve_a: TrimmingCurve, curve_b: TrimmingCurve,
               params: np.ndarray):
    """Blend the curves: positions (2, m), Jacobians (2, 2, m), determinants.

    Raises DegenerateTrimError where the determinant is not positive, that
    is where the map folds over.
    """
    s = params[:, 0]
    t = params[:, 1]
    # (point or derivative, coordinate, m)
    ca = curve_a.evaluate(t).transpose(1, 2, 0)
    cb = curve_b.evaluate(t).transpose(1, 2, 0)
    pos = (1.0 - s) * ca[0] + s * cb[0]
    jac = np.empty((2, 2, params.shape[0]))
    jac[:, 0] = cb[0] - ca[0]
    jac[:, 1] = (1.0 - s) * ca[1] + s * cb[1]
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if np.any(det <= 0.0):
        i = int(np.argmin(det))
        raise DegenerateTrimError(
            f"trim map folds over: Jacobian determinant {det[i]:.3e} at "
            f"parameter {tuple(params[i].tolist())}"
        )
    return pos, jac, det


@dataclass(frozen=True, eq=False)
class TrimmedPatch:
    """Region of a patch between two parameter-plane curves.

    Both curves must run in the same direction; the second is reversed
    automatically when its ends pair up better that way.  The plane map must
    keep a strictly positive Jacobian determinant; this is sampled on a grid
    at construction and enforced again at every evaluation.
    """

    base: NurbsPatch
    curve_a: TrimmingCurve
    curve_b: TrimmingCurve

    def __post_init__(self):
        a0, a1 = self.curve_a.evaluate([0.0, 1.0])[:, 0]
        b0, b1 = self.curve_b.evaluate([0.0, 1.0])[:, 0]
        keep = np.linalg.norm(a0 - b0) + np.linalg.norm(a1 - b1)
        swap = np.linalg.norm(a0 - b1) + np.linalg.norm(a1 - b0)
        if swap < keep:
            object.__setattr__(self, "curve_b", self.curve_b.reversed())
        axis = np.linspace(0, 1, _TRIM_VALIDATION_SAMPLES)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        _plane_map(self.curve_a, self.curve_b, grid.reshape(-1, 2))

    @property
    def flip_normal(self) -> bool:
        return self.base.flip_normal

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.base.bbox()

    def points_at(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float).reshape(-1, 2)
        pos, _, _ = _plane_map(self.curve_a, self.curve_b, params)
        return self.base.points_at(pos.T)

    def frames_at(self, params: np.ndarray) -> FrameBatch:
        params = np.asarray(params, dtype=float).reshape(-1, 2)
        pos, jac, det = _plane_map(self.curve_a, self.curve_b, params)
        inner = self.base.frames_at(pos.T)
        tan_u, tan_v = inner.tangents_u.T, inner.tangents_v.T
        tan_s = tan_u * jac[0, 0] + tan_v * jac[1, 0]
        tan_t = tan_u * jac[0, 1] + tan_v * jac[1, 1]
        # positive determinant keeps the chained cross product parallel to the
        # base normal, so the area element just picks up the factor det
        return FrameBatch(inner.positions, tan_s.T, tan_t.T,
                          inner.normals, inner.areas * det)


def straight_trim_pair(u_start: float, u_end: float) -> tuple[TrimmingCurve, TrimmingCurve]:
    """Vertical trim lines u = u_start and u = u_end across the full v range."""
    line = unit_interval_space(1)
    first = TrimmingCurve(line, np.array([[u_start, 0.0], [u_start, 1.0]]))
    second = TrimmingCurve(line, np.array([[u_end, 0.0], [u_end, 1.0]]))
    return first, second


def build_quarter_cylinder(radius: float = 1.0, length: float = 1.0,
                           exact_arc: bool = False) -> NurbsPatch:
    """Quarter cylinder surface: a quadratic arc in u swept linearly in v.

    With ``exact_arc`` the middle weight is sqrt(2)/2 and the cross section
    is an exact circular arc; otherwise the traditional rounded value 0.7 is
    used, which leaves a small radial deviation near mid-arc.
    """
    if radius <= 0.0 or length <= 0.0:
        raise GeometryError("radius and length must be positive")
    w_mid = float(np.sqrt(2.0) / 2.0) if exact_arc else 0.7
    space_u = unit_interval_space(2)
    space_v = unit_interval_space(1)
    arc = np.array([[radius, 0.0], [radius, radius], [0.0, radius]])
    control = np.zeros((3, 2, 3))
    control[:, 0, :2] = arc
    control[:, 1, :2] = arc
    control[:, 1, 2] = length
    weights = np.array([[1.0, 1.0], [w_mid, w_mid], [1.0, 1.0]])
    return NurbsPatch(space_u, space_v, control, weights)
