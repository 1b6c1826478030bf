"""Model-level containers: field spaces, loads, symmetry, solver settings.

Displacement unknowns live in per-patch tensor-product B-spline spaces over
the unit parameter square. Those spaces are chosen independently of the
geometry description, so a coarse exact geometry can carry a high-order
field approximation. Raising the field order never touches control points
or weights.

Mirror symmetry is declared per model as a set of coordinate planes through
the origin ("xy", "xz", "yz"). Only the non-redundant part of the boundary
is meshed; integration contributions from the mirrored images are generated
on the fly during assembly.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ModelError
from .geometry import NurbsPatch, TrimmedPatch, straight_trim_pair
from .kernels import Material
from .quadrature import MAX_GAUSS_ORDER
from .splines import (
    BasisSpace,
    bspline_basis_many,
    elevate_space,
    greville_abscissae,
    unit_interval_space,
)

__all__ = [
    "FieldSpacePair",
    "LoadState",
    "SolverConfig",
    "BoundaryModel",
    "reflection_matrix",
    "symmetry_group",
    "build_cube_model",
    "build_trimmed_cube_model",
]

_PLANE_NORMALS = {"xy": 2, "xz": 1, "yz": 0}


def reflection_matrix(plane):
    """Reflection across a coordinate plane through the origin."""
    try:
        axis = _PLANE_NORMALS[plane]
    except KeyError:
        raise ModelError(
            f"unknown symmetry plane {plane!r}, expected one of xy, xz, yz"
        ) from None
    mat = np.eye(3)
    mat[axis, axis] = -1.0
    return mat


def symmetry_group(planes):
    """All reflection products generated by the declared planes.

    Returns 2**len(planes) orthogonal matrices, the identity first.
    """
    mats = [np.eye(3)]
    for plane in planes:
        ref = reflection_matrix(plane)
        mats.extend([m @ ref for m in mats])
    return mats


@dataclass(frozen=True, eq=False)
class FieldSpacePair:
    """Tensor-product B-spline space for one patch's displacement field.

    Both directions are parameterized over [0, 1]. A coefficient grid entry
    (a, b) corresponds to flat index a * n_v + b, and every evaluation
    method follows that ordering.
    """

    space_u: BasisSpace
    space_v: BasisSpace

    def __post_init__(self):
        for name, space in (("u", self.space_u), ("v", self.space_v)):
            knots = space.knots
            if knots[0] != 0.0 or knots[-1] != 1.0:
                raise ModelError(
                    f"field space ({name}) must span [0, 1], got "
                    f"[{knots[0]}, {knots[-1]}]"
                )
            if space.degree < 1:
                raise ModelError("field spaces need degree >= 1")
            # more copies of a knot than the degree give two basis functions
            # one Greville point; each end knot has one copy to spare
            uniques, counts = space.breakpoints()
            counts[[0, -1]] -= 1
            if np.any(counts > space.degree):
                knot = float(uniques[np.argmax(counts > space.degree)])
                raise ModelError(
                    f"field space ({name}) repeats knot {knot!r} more than "
                    f"its degree {space.degree} allows"
                )

    @classmethod
    def from_orders(cls, degree_u, degree_v=None, interior_u=(), interior_v=()):
        if degree_v is None:
            degree_v = degree_u
        return cls(
            unit_interval_space(degree_u, interior_u),
            unit_interval_space(degree_v, interior_v),
        )

    @property
    def n_u(self):
        return self.space_u.n_basis

    @property
    def n_v(self):
        return self.space_v.n_basis

    @property
    def n_total(self):
        return self.n_u * self.n_v

    @property
    def orders(self):
        return (self.space_u.degree, self.space_v.degree)

    def greville_params(self):
        """Collocation parameters, one per basis function, flat ordering."""
        gu = greville_abscissae(self.space_u)
        gv = greville_abscissae(self.space_v)
        uu, vv = np.meshgrid(gu, gv, indexing="ij")
        return np.column_stack([uu.ravel(), vv.ravel()])

    def values(self, params):
        """Basis values at params (m, 2); returns (m, n_total)."""
        params = np.asarray(params, dtype=float)
        bu = bspline_basis_many(self.space_u, params[:, 0])
        bv = bspline_basis_many(self.space_v, params[:, 1])
        return (bu[:, :, None] * bv[:, None, :]).reshape(len(params),
                                                         self.n_total)

    def elevated(self, new_degree):
        """Same breakpoints, higher order in both directions."""
        p, q = self.orders
        if new_degree <= max(p, q):
            raise ModelError(
                f"new field order {new_degree} must exceed current ({p}, {q})"
            )
        return FieldSpacePair(
            elevate_space(self.space_u, new_degree),
            elevate_space(self.space_v, new_degree),
        )


@dataclass(frozen=True, eq=False)
class LoadState:
    """Uniform far-field (virgin) stress driving a Neumann problem.

    The stress is given as the pseudo-vector (sxx, syy, szz, sxy, syz, szx)
    in the same stress units as the material moduli. Surface traction is the
    matrix product of the stress with the outward normal, scaled by the
    excavation sign from the solver configuration.
    """

    virgin_stress: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.virgin_stress, dtype=float)
        if vec.shape != (6,):
            raise ModelError(
                f"virgin stress must have 6 components, got shape {vec.shape}"
            )
        if not np.all(np.isfinite(vec)):
            raise ModelError("virgin stress must be finite")
        vec = vec.copy()
        vec.flags.writeable = False
        object.__setattr__(self, "virgin_stress", vec)

    def stress_matrix(self):
        sxx, syy, szz, sxy, syz, szx = self.virgin_stress
        return np.array(
            [
                [sxx, sxy, szx],
                [sxy, syy, syz],
                [szx, syz, szz],
            ]
        )

    def traction(self, normals, sign=1.0):
        """Tractions t = sigma . n at unit normals (m, 3), scaled by sign."""
        normals = np.asarray(normals, dtype=float)
        return sign * normals @ self.stress_matrix()


@dataclass(frozen=True)
class SolverConfig:
    """Quadrature, merge and output settings of a solve.

    ``gauss_order`` is the Gauss order per direction on regular regions.
    ``singular_gauss_order`` is the angular order of the singular fans and
    the cap on their radial order, which is p + 1, p the larger field
    degree, on a patch with an affine map and no interior knot, and
    ``singular_gauss_order`` on every other patch.
    """

    gauss_order: int = 8
    singular_gauss_order: int = 12
    quadtree_threshold: float = 1.0
    quadtree_max_depth: int = 6
    merge_tol: float | None = None
    excavation_sign: float = 1.0
    viz_samples: int = 17

    def __post_init__(self):
        for name, low, high in (("gauss_order", 1, MAX_GAUSS_ORDER),
                                ("singular_gauss_order", 1, MAX_GAUSS_ORDER),
                                ("quadtree_max_depth", 0, np.inf),
                                ("viz_samples", 2, np.inf)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)) or not low <= value <= high:
                raise ModelError(f"{name} must be an integer in "
                                 f"[{low}, {high}], got {value!r}")
        for name in ("quadtree_threshold", "merge_tol"):
            value = getattr(self, name)
            if value is None and name == "merge_tol":
                continue
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Real) or not value > 0:
                raise ModelError(f"{name} must be a positive number, got "
                                 f"{value!r}")
        if isinstance(self.excavation_sign, bool) \
                or self.excavation_sign not in (1, -1):
            raise ModelError(f"excavation_sign must be 1 or -1, got "
                             f"{self.excavation_sign!r}")

    def resolved_merge_tol(self, bbox_diagonal):
        if self.merge_tol is not None:
            return self.merge_tol
        return 1e-8 * max(bbox_diagonal, 1e-300)


@dataclass(frozen=True, eq=False)
class BoundaryModel:
    """A boundary-only description of one linear elastostatic problem.

    patches and field_pairs run in parallel: patch k carries its
    displacement approximation in field_pairs[k]. ``exterior`` selects the
    infinite-domain formulation (material outside the surface, fields decay
    at infinity); ``closed`` asserts that the surface, together with any
    mirror images, bounds a volume. The free-term construction requires a
    closed continuation and refuses to run otherwise.
    """

    patches: tuple
    field_pairs: tuple
    material: Material
    load: LoadState | None = None
    symmetry_planes: tuple = ()
    exterior: bool = False
    closed: bool = True
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        patches = tuple(self.patches)
        pairs = tuple(self.field_pairs)
        planes = tuple(self.symmetry_planes)
        if not patches:
            raise ModelError("model needs at least one patch")
        for k, patch in enumerate(patches):
            if not isinstance(patch, (NurbsPatch, TrimmedPatch)):
                raise ModelError(f"patch {k} has unsupported type {type(patch)!r}")
        if len(pairs) != len(patches):
            raise ModelError(
                f"{len(patches)} patches but {len(pairs)} field space pairs"
            )
        if len(set(planes)) != len(planes):
            raise ModelError(f"duplicate symmetry planes in {planes}")
        for plane in planes:
            reflection_matrix(plane)
        if self.load is not None and planes:
            sigma = self.load.stress_matrix()
            scale = max(1.0, np.abs(sigma).max())
            for plane in planes:
                mat = reflection_matrix(plane)
                mirrored = mat @ sigma @ mat
                if np.abs(mirrored - sigma).max() > 1e-12 * scale:
                    raise ModelError(
                        f"virgin stress is incompatible with symmetry plane "
                        f"{plane!r}: reflected stress differs"
                    )
        object.__setattr__(self, "patches", patches)
        object.__setattr__(self, "field_pairs", pairs)
        object.__setattr__(self, "symmetry_planes", planes)

    @property
    def n_patches(self):
        return len(self.patches)

    def bbox(self):
        lows = []
        highs = []
        for patch in self.patches:
            lo, hi = patch.bbox()
            lows.append(lo)
            highs.append(hi)
        return np.min(lows, axis=0), np.max(highs, axis=0)

    def bbox_diagonal(self):
        lo, hi = self.bbox()
        return float(np.linalg.norm(hi - lo))

    def with_field_pairs(self, pairs):
        return replace(self, field_pairs=tuple(pairs))

    def with_config(self, config):
        return replace(self, config=config)


def _bilinear_face(corner):
    """One flat quad face from a map (u, v) -> 3D corner coordinates."""
    controls = np.empty((2, 2, 3))
    for i, j in itertools.product((0, 1), (0, 1)):
        controls[i, j] = corner(float(i), float(j))
    return NurbsPatch(
        unit_interval_space(1),
        unit_interval_space(1),
        controls,
        np.ones((2, 2)),
    )


# Face maps for the unit cube [0,1]^3, each oriented so the surface normal
# (tangent_u x tangent_v) points out of the cube.
_CUBE_FACES = (
    lambda u, v: (v, u, 0.0),
    lambda u, v: (u, v, 1.0),
    lambda u, v: (1.0, u, v),
    lambda u, v: (0.0, v, u),
    lambda u, v: (v, 1.0, u),
    lambda u, v: (u, 0.0, v),
)


def _default_cube_kwargs(material, load):
    if material is None:
        material = Material(1000.0, 0.0)
    if load is None:
        load = LoadState(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    return material, load


def build_cube_model(order=2, material=None, load=None, config=None):
    """Closed unit cube out of six flat patches, uniaxial load by default."""
    material, load = _default_cube_kwargs(material, load)
    patches = tuple(_bilinear_face(corner) for corner in _CUBE_FACES)
    pairs = tuple(FieldSpacePair.from_orders(order) for _ in patches)
    return BoundaryModel(
        patches,
        pairs,
        material,
        load=load,
        config=config or SolverConfig(),
    )


def build_trimmed_cube_model(order=2, split=0.5, material=None, load=None,
                             config=None):
    """Unit cube with the top face split into two trimmed patches.

    The top face is kept as a single geometric patch; two straight trimming
    bands at u < split and u > split cover it between them. Everything else
    matches build_cube_model, so the two models describe the same solid.
    """
    if not 0.0 < split < 1.0:
        raise ModelError(f"split must lie strictly inside (0, 1), got {split}")
    material, load = _default_cube_kwargs(material, load)
    faces = [_bilinear_face(corner) for corner in _CUBE_FACES]
    top = faces[1]
    left = TrimmedPatch(top, *straight_trim_pair(0.0, split))
    right = TrimmedPatch(top, *straight_trim_pair(split, 1.0))
    patches = (faces[0], left, right, faces[2], faces[3], faces[4], faces[5])
    pairs = tuple(FieldSpacePair.from_orders(order) for _ in patches)
    return BoundaryModel(
        patches,
        pairs,
        material,
        load=load,
        config=config or SolverConfig(),
    )
